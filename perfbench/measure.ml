(* Clock, sample statistics, layer spans and the result line. *)

let now_ns () = Int64.to_int (Core.Perf.Stage.now_ns ())
let secs_of_ns ns = float_of_int ns *. 1e-9

(* [time f] is [(f (), seconds)]. *)
let time f =
  let t0 = now_ns () in
  let r = f () in
  (r, secs_of_ns (now_ns () - t0))

let sorted (xs : float array) =
  let a = Array.copy xs in
  Array.sort Float.compare a;
  a

(* Nearest-rank percentile: the smallest sample with at least [p]% of
   the samples at or below it. *)
let percentile (xs : float array) p =
  let a = sorted xs in
  let n = Array.length a in
  if n = 0 then nan
  else
    let k = int_of_float (Float.ceil (p /. 100. *. float_of_int n)) - 1 in
    a.(max 0 (min (n - 1) k))

let median (xs : float array) =
  let a = sorted xs in
  let n = Array.length a in
  if n = 0 then nan
  else if n mod 2 = 1 then a.(n / 2)
  else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.

(* ---- spans ------------------------------------------------------------

   A span is recorded around each call the benchmark makes into a
   layer, only while [tracing] is on: per name, the number of calls and
   their total time. The totals are summarised on stderr when the run
   ends. *)

let tracing = ref false
let spans : (string, int * int) Hashtbl.t = Hashtbl.create 64
let span_order = ref []
let calls_total = ref 0

let record name ns =
  incr calls_total;
  match Hashtbl.find_opt spans name with
  | Some (n, t) -> Hashtbl.replace spans name (n + 1, t + ns)
  | None ->
    span_order := name :: !span_order;
    Hashtbl.replace spans name (1, ns)

let span name f =
  if not !tracing then f ()
  else begin
    let t0 = now_ns () in
    Fun.protect ~finally:(fun () -> record name (now_ns () - t0)) f
  end

let reset_spans () =
  Hashtbl.reset spans;
  span_order := []

(* Seconds summed over every span called [name]. *)
let span_s name = match Hashtbl.find_opt spans name with Some (_, t) -> secs_of_ns t | None -> 0.

(* Spans recorded in the whole run, resets included. *)
let span_calls () = !calls_total

(* What one span adds to the call it wraps: [n] empty calls timed with
   tracing on, minus the same calls with it off, over [n]. The calls go
   to a scratch name that is removed afterwards. *)
let span_cost_s () =
  let n = 200_000 and name = "(span cost)" in
  let run () =
    let t0 = now_ns () in
    for _ = 1 to n do
      span name ignore
    done;
    now_ns () - t0
  in
  let was = !tracing in
  tracing := false;
  let off = run () in
  tracing := true;
  let on = run () in
  tracing := was;
  Hashtbl.remove spans name;
  calls_total := !calls_total - n;
  span_order := List.filter (( <> ) name) !span_order;
  Float.max 0. (secs_of_ns (on - off) /. float_of_int n)

let report_spans oc =
  Printf.fprintf oc "# %-28s %6s %12s\n" "span" "calls" "total_s";
  List.iter
    (fun name ->
      let n, t = Hashtbl.find spans name in
      Printf.fprintf oc "# %-28s %6d %12.6f\n" name n (secs_of_ns t))
    (List.rev !span_order)

(* ---- result line ------------------------------------------------------ *)

type metric = { m_name : string; m_unit : string; m_value : float }

let metric m_name m_unit m_value = { m_name; m_unit; m_value }

let json_number f =
  if Float.is_integer f && Float.abs f < 1e15 then Printf.sprintf "%.0f" f
  else Printf.sprintf "%.17g" f

(* The last line of stdout: one JSON object. A metric that could not be
   measured (NaN) fails the run instead of printing invalid JSON. *)
let emit ~correct ~attempted ~failed metrics =
  let finite = List.for_all (fun m -> Float.is_finite m.m_value) metrics in
  let fields =
    List.map
      (fun m ->
        Printf.sprintf {|"%s": {"value": %s, "unit": "%s"}|} m.m_name
          (if Float.is_finite m.m_value then json_number m.m_value else "0")
          m.m_unit)
      metrics
  in
  Printf.printf {|{"correct": %b, "attempted": %d, "failed": %d, "metrics": {%s}}|}
    (correct && finite) attempted
    (if finite then failed else max 1 failed)
    (String.concat ", " fields);
  print_newline ();
  correct && finite
