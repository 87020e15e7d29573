(** Identity of a system API, in the broad sense used by the study:
    system calls, vectored system call opcodes (ioctl/fcntl/prctl),
    pseudo-files under /proc, /dev and /sys, and libc exports. *)

type vector = Ioctl | Fcntl | Prctl

type t =
  | Syscall of int  (** x86-64 system call number *)
  | Vop of vector * int  (** operation code of a vectored system call *)
  | Pseudo_file of string  (** hard-coded pseudo-file path, normalized *)
  | Libc_sym of string  (** dynamic symbol exported by the C library *)

let vector_name = function Ioctl -> "ioctl" | Fcntl -> "fcntl" | Prctl -> "prctl"

let vector_syscall_nr = function Ioctl -> 16 | Fcntl -> 72 | Prctl -> 157

let vector_of_syscall_nr = function
  | 16 -> Some Ioctl
  | 72 -> Some Fcntl
  | 157 -> Some Prctl
  | _ -> None

(* Monomorphic order, equal to [Stdlib.compare]'s on this type: the
   constructor in declaration order first, then the payload — numbers
   by value, a vector by its declaration rank, strings bytewise. Sets,
   maps and tables of APIs sit on every hot path of the pipeline and
   the index builder, where the runtime's generic compare costs a
   C call per comparison; the order (and with it every [Set]
   iteration, snapshot byte and interned id) is unchanged. *)
let tag = function
  | Syscall _ -> 0
  | Vop _ -> 1
  | Pseudo_file _ -> 2
  | Libc_sym _ -> 3

let vector_rank = function Ioctl -> 0 | Fcntl -> 1 | Prctl -> 2

let compare a b =
  match (a, b) with
  | Syscall x, Syscall y -> Int.compare x y
  | Vop (v, x), Vop (w, y) ->
    (match Int.compare (vector_rank v) (vector_rank w) with
     | 0 -> Int.compare x y
     | c -> c)
  | Pseudo_file x, Pseudo_file y | Libc_sym x, Libc_sym y -> String.compare x y
  | _ -> Int.compare (tag a) (tag b)

let equal a b =
  match (a, b) with
  | Syscall x, Syscall y -> Int.equal x y
  | Vop (v, x), Vop (w, y) -> v == w && Int.equal x y
  | Pseudo_file x, Pseudo_file y | Libc_sym x, Libc_sym y -> String.equal x y
  | _ -> false

(* Generic structural hash, kept so [Tbl] iteration order (which
   [Store.used_apis] exposes) does not move. *)
let hash = Hashtbl.hash

let pp ppf = function
  | Syscall nr -> Fmt.pf ppf "syscall:%d" nr
  | Vop (v, code) -> Fmt.pf ppf "%s:0x%x" (vector_name v) code
  | Pseudo_file path -> Fmt.pf ppf "file:%s" path
  | Libc_sym name -> Fmt.pf ppf "libc:%s" name

let to_string t = Fmt.str "%a" pp t

module Set = Set.Make (struct
  type nonrec t = t
  let compare = compare
end)

module Map = Map.Make (struct
  type nonrec t = t
  let compare = compare
end)

module Tbl = Hashtbl.Make (struct
  type nonrec t = t
  let equal = equal
  let hash = hash
end)
