(* The fixed query mix, drawn from a seed, and how its answers are
   checked.

   - completeness over a random 1-200-syscall subset: the scatter
     class. Every subset is fresh, so no cache can answer it, and on a
     sliced fleet it touches every shard.
   - dependents of a Zipf-drawn API: also scatter on a sliced fleet.
   - importance of a Zipf-drawn API: the point class, answered by one
     shard or by the router's cache.

   The API a Zipf draw names is ranked by its importance in the index
   being served: the API most installations need is the one asked
   about most. The class shares, the Zipf exponent and the dependents
   limit have no measured source; they are assumptions, listed in
   perfbench/README.md with the figures that depend on them. *)

module Q = Core.Query.Engine
module P = Core.Query.Protocol
module Json = Core.Query.Json

type op =
  | Completeness of int list
  | Dependents of string
  | Importance of string

type cls = Scatter | Point

let cls = function Completeness _ | Dependents _ -> Scatter | Importance _ -> Point

(* Assumed: the paper's two questions (weighted completeness and
   importance) asked equally often, with "a few" dependents calls taken
   from the completeness half; plain Zipf (s = 1) over the importance
   ranking; a ten-row dependents answer, as in the README's `top 10`. *)
let p_completeness = 0.45
let p_dependents = 0.05
let dependents_limit = 10
let zipf_s = 1.0
let max_subset = 200

(* An answer in the form both the wire and the in-process calls give. *)
type answer = Value of float | Ranked of (string * float) list

let api_exn s =
  match Q.api_of_string s with Ok a -> a | Error msg -> failwith msg

type gen = {
  rng : Random.State.t;
  apis : string array;  (** Zipf rank order: by importance, highest first *)
  cdf : float array;
  n_syscalls : int;
}

let generator ~seed idx (apis : string list) =
  let rng = Random.State.make [| seed; 0x6d6978 |] in
  let by_importance =
    List.map (fun a -> (-.Q.importance idx (api_exn a), a)) apis |> List.sort compare
  in
  let apis = Array.of_list (List.map snd by_importance) in
  let w = Array.init (Array.length apis) (fun k -> 1. /. (float_of_int (k + 1) ** zipf_s)) in
  let total = Array.fold_left ( +. ) 0. w in
  let acc = ref 0. in
  let cdf = Array.map (fun x -> acc := !acc +. (x /. total); !acc) w in
  { rng; apis; cdf; n_syscalls = Core.Apidb.Syscall_table.count }

let zipf g =
  let u = Random.State.float g.rng 1.0 in
  let lo = ref 0 and hi = ref (Array.length g.cdf - 1) in
  while !lo < !hi do
    let mid = (!lo + !hi) / 2 in
    if g.cdf.(mid) < u then lo := mid + 1 else hi := mid
  done;
  g.apis.(!lo)

let draw g =
  let u = Random.State.float g.rng 1.0 in
  if u < p_completeness then begin
    let k = 1 + Random.State.int g.rng max_subset in
    let chosen = Hashtbl.create k in
    while Hashtbl.length chosen < min k g.n_syscalls do
      Hashtbl.replace chosen (Random.State.int g.rng g.n_syscalls) ()
    done;
    Completeness (List.sort compare (Hashtbl.fold (fun s () acc -> s :: acc) chosen []))
  end
  else if u < p_completeness +. p_dependents then Dependents (zipf g)
  else Importance (zipf g)

let draw_n g n = Array.init n (fun _ -> draw g)

(* The in-process answer, from any index (heap, mapped or a slice
   covering every package). *)
let answer idx = function
  | Completeness s -> Value (Q.eval_syscalls idx s)
  | Importance a -> Value (Q.importance idx (api_exn a))
  | Dependents a -> Ranked (Q.dependents_ranked ~limit:dependents_limit idx (api_exn a))

let request ~id op =
  let rq_op =
    match op with
    | Completeness syscalls -> P.Completeness { syscalls; phase = Q.All }
    | Importance api -> P.Importance { api; phase = Q.All }
    | Dependents api -> P.Dependents { api; limit = Some dependents_limit }
  in
  { P.rq_id = Some (Json.Num (float_of_int id)); rq_op }

let json_line ~id op = Json.to_string (P.json_of_request (request ~id op)) ^ "\n"

let within tol a b = Float.abs (a -. b) <= tol

let agree ~tol a b =
  match (a, b) with
  | Value x, Value y -> within tol x y
  | Ranked xs, Ranked ys ->
    List.length xs = List.length ys
    && List.for_all2 (fun (n, p) (m, q) -> n = m && within tol p q) xs ys
  | _ -> false

(* Check one reply line against the expected answer. [Ok ()] when it
   is right; [Error kind] names what went wrong: the reply's error kind
   ("overloaded", "degraded", ...), "wrong-answer" or "bad-reply". *)
let check_reply ~id ~expect line =
  match Json.parse line with
  | Error _ -> Error "bad-reply"
  | Ok j -> (
    match P.response_of_json j with
    | Error _ -> Error "bad-reply"
    | Ok { P.rs_id; rs_result } -> (
      if rs_id <> Some (Json.Num (float_of_int id)) then Error "bad-reply"
      else
        let got =
          match rs_result with
          | Ok (P.Completeness_r r) -> Ok (Value r.completeness)
          | Ok (P.Importance_r r) -> Ok (Value r.importance)
          | Ok (P.Dependents_r r) -> Ok (Ranked r.packages)
          | Ok _ -> Error "bad-reply"
          | Error e -> Error e.P.e_kind
        in
        match got with
        | Error k -> Error k
        | Ok a -> if agree ~tol:1e-12 a expect then Ok () else Error "wrong-answer"))
