(** Flat fixed-universe bitsets over [int array] words. See the
    interface for the design notes; the representation invariant
    maintained by every operation is that bits at positions
    [>= universe] are zero, which is what lets [equal]/[subset]/
    [cardinal] run word-wise without masking the tail word. *)

(* Bits per word: the native int's usable width (63 on 64-bit). *)
let bpw = Sys.int_size

type t = {
  u : int;  (* universe size *)
  w : int array;  (* ceil (u / bpw) words, tail bits always clear *)
}

let words_for u = (u + bpw - 1) / bpw

let create u =
  if u < 0 then invalid_arg "Bitset.create: negative universe";
  { u; w = Array.make (words_for u) 0 }

let universe t = t.u

let add t i =
  if i < 0 || i >= t.u then invalid_arg "Bitset.add: out of universe";
  t.w.(i / bpw) <- t.w.(i / bpw) lor (1 lsl (i mod bpw))

let remove t i =
  if i < 0 || i >= t.u then invalid_arg "Bitset.remove: out of universe";
  t.w.(i / bpw) <- t.w.(i / bpw) land lnot (1 lsl (i mod bpw))

let mem t i =
  i >= 0 && i < t.u && t.w.(i / bpw) land (1 lsl (i mod bpw)) <> 0

(* Byte-table population count: one lookup per occupied byte of the
   word. Builds once at module load; 256 bytes. *)
let byte_pop =
  let tbl = Bytes.create 256 in
  for b = 0 to 255 do
    let rec pop n = if n = 0 then 0 else (n land 1) + pop (n lsr 1) in
    Bytes.set tbl b (Char.chr (pop b))
  done;
  tbl

let pop_word w =
  let rec go w acc =
    if w = 0 then acc
    else go (w lsr 8) (acc + Char.code (Bytes.get byte_pop (w land 0xff)))
  in
  go w 0

let cardinal t = Array.fold_left (fun acc w -> acc + pop_word w) 0 t.w

let is_empty t = Array.for_all (fun w -> w = 0) t.w

let check_universe op a b =
  if a.u <> b.u then
    invalid_arg (Printf.sprintf "Bitset.%s: universes differ (%d vs %d)" op a.u b.u)

let subset a b =
  check_universe "subset" a b;
  let n = Array.length a.w in
  let i = ref 0 in
  while !i < n && a.w.(!i) land lnot b.w.(!i) = 0 do
    incr i
  done;
  !i = n

let inter a b =
  check_universe "inter" a b;
  { u = a.u; w = Array.init (Array.length a.w) (fun i -> a.w.(i) land b.w.(i)) }

let union a b =
  check_universe "union" a b;
  { u = a.u; w = Array.init (Array.length a.w) (fun i -> a.w.(i) lor b.w.(i)) }

let union_into ~into src =
  check_universe "union_into" into src;
  for i = 0 to Array.length into.w - 1 do
    into.w.(i) <- into.w.(i) lor src.w.(i)
  done

let equal a b = a.u = b.u && a.w = b.w

let copy t = { u = t.u; w = Array.copy t.w }

let words t = t.w

let key t =
  let b = Bytes.create (8 * Array.length t.w) in
  Array.iteri (fun i w -> Bytes.set_int64_le b (8 * i) (Int64.of_int w)) t.w;
  Bytes.unsafe_to_string b

(* Index of the lowest set bit of a nonzero word in constant time. The
   isolated bit [1 lsl k] is distinct modulo the prime 67 for every
   [k < 66] (2 generates the multiplicative group mod 67), so one
   remainder and one table read name it. Bit 62 is the sign bit: its
   isolated value is [min_int], whose remainder is negative. *)
let low_bit_of_mod67 =
  let tbl = Bytes.make 67 '\255' in
  for k = 0 to bpw - 2 do
    Bytes.set tbl ((1 lsl k) mod 67) (Char.chr k)
  done;
  tbl

let lowest_bit w =
  let b = w land -w in
  if b < 0 then bpw - 1
  else Char.code (Bytes.unsafe_get low_bit_of_mod67 (b mod 67))

let iter f t =
  for k = 0 to Array.length t.w - 1 do
    let w = ref t.w.(k) in
    let base = k * bpw in
    while !w <> 0 do
      f (base + lowest_bit !w);
      w := !w land (!w - 1)
    done
  done

let fold f t init =
  let acc = ref init in
  iter (fun i -> acc := f i !acc) t;
  !acc

let to_sorted_array t =
  let out = Array.make (cardinal t) 0 in
  let k = ref 0 in
  iter
    (fun i ->
      out.(!k) <- i;
      incr k)
    t;
  out

let of_list u ids =
  let t = create u in
  List.iter (fun i -> if i >= 0 && i < u then add t i) ids;
  t

let of_sorted_array u arr =
  let t = create u in
  Array.iter (fun i -> if i >= 0 && i < u then add t i) arr;
  t

let to_bytes t =
  let len = (t.u + 7) / 8 in
  let b = Bytes.make len '\000' in
  iter
    (fun i ->
      let j = i / 8 in
      Bytes.set b j (Char.chr (Char.code (Bytes.get b j) lor (1 lsl (i mod 8)))))
    t;
  Bytes.unsafe_to_string b

let of_bytes u s =
  if u < 0 then Error "negative universe"
  else if String.length s <> (u + 7) / 8 then
    Error
      (Printf.sprintf "bitset payload is %d bytes, universe %d needs %d"
         (String.length s) u ((u + 7) / 8))
  else begin
    let t = create u in
    let bad = ref false in
    String.iteri
      (fun j c ->
        let c = Char.code c in
        for bit = 0 to 7 do
          if c land (1 lsl bit) <> 0 then begin
            let i = (j * 8) + bit in
            if i < u then add t i else bad := true
          end
        done)
      s;
    if !bad then Error "set bits beyond the universe" else Ok t
  end
