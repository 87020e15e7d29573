(* The benchmark: the three workloads of perfbench/README.md:

     bench.exe --workload cold-analyze|release-stream|fleet-mixed
               --seed N --seconds S --trace 0|1 --lapis PATH --work DIR

   With --trace 0 it prints the end-to-end metrics, with --trace 1 the
   per-layer metrics, as the last stdout line (one JSON object). It
   exits 0 only when every correctness check passed and no operation
   failed. perfbench/run.py builds it and supervises it. *)

open Measure
module G = Core.Distro.Generator
module Pl = Core.Db.Pipeline
module Sn = Core.Db.Snapshot
module Q = Core.Query.Engine
module P = Core.Query.Protocol
module Json = Core.Query.Json
module Package = Core.Distro.Package
module Reader = Core.Elf.Reader
module Classify = Core.Elf.Classify
module Binary = Core.Analysis.Binary
module Resolve = Core.Analysis.Resolve
module Stage = Core.Perf.Stage

(* ---- settings ------------------------------------------------------- *)

type scale = {
  cold_packages : int;
  stream_packages : int;
  fleet_packages : int;
  setup_reps : int;  (** set-ups per run; [setup_s] is their median *)
  mapped_checks : int;  (** mix queries checked mapped against heap *)
  drain_requests : int;  (** requests per closed-loop drain of the fleet *)
  reference_rate : int;  (** q/s the fleet latencies are measured at *)
  ladder : int list;  (** q/s rungs the fleet capacity climbs *)
  probe_s : float;  (** serving probe length in traced runs *)
}

(* 3,000 q/s sits above the low rates where wake-up costs dominate a
   2-shard fleet's latency on two cores, and below its knee. *)
let full =
  {
    cold_packages = 1400;
    stream_packages = 300;
    fleet_packages = 1400;
    setup_reps = 3;
    mapped_checks = 20_000;
    drain_requests = 20_000;
    reference_rate = 3000;
    ladder = [ 1000; 2000; 3000; 4000; 5000; 6000; 7000; 8000; 10000; 12000 ];
    probe_s = 2.0;
  }

(* For the benchmark's own tests: the same code paths in seconds. *)
let tiny =
  {
    cold_packages = 120;
    stream_packages = 120;
    fleet_packages = 120;
    setup_reps = 1;
    mapped_checks = 2000;
    drain_requests = 300;
    reference_rate = 1000;
    ladder = [ 1000; 1500; 2000 ];
    probe_s = 0.5;
  }

(* How much work [--seconds] buys: chain repetitions on cold-analyze
   (about 5 s each at 1,400 packages), releases on release-stream
   (about 2.5 s each, evolve included, at 300 packages) and
   closed-loop drains on fleet-mixed. The counts are fixed by
   [--seconds] so that every commit does the same work. *)
let cold_reps secs = max 2 (int_of_float (secs /. 5.))
let stream_releases secs = max 2 (int_of_float (secs /. 2.5))
let drain_reps secs = max 2 (int_of_float (secs /. 5.))

(* Requests a drain keeps outstanding: enough for the router to
   coalesce shard writes into batches. *)
let drain_window = 64

(* A fleet reply later than [deadline_s] is a failure. A capacity rung
   passes with scatter p99 within [scatter_p99_limit_ms]. Fleet
   latencies measured while the sender ran later than [late_limit_ms]
   at p99 are marked invalid. *)
let deadline_s = 1.0
let scatter_p99_limit_ms = 5.0
let late_limit_ms = 5.0

type plant = No_plant | Wrong_answer | Kill_shard

let lapis = ref "lapis"
let work = ref "."
let plant = ref No_plant

(* ---- outcome -------------------------------------------------------- *)

let attempted = ref 0
let failed = ref 0
let checks_ok = ref true

let fail_check fmt =
  Printf.ksprintf
    (fun msg ->
      checks_ok := false;
      Printf.eprintf "FAIL: %s\n%!" msg)
    fmt

let count ~attempts ~failures what =
  attempted := !attempted + attempts;
  failed := !failed + failures;
  if failures > 0 then Printf.eprintf "failed: %d of %d %s\n%!" failures attempts what

let e2e : (string * float) list ref = ref []
let layers : (string * float) list ref = ref []
let layer name v = layers := (name, v) :: List.remove_assoc name !layers

let work_file name =
  let p = Filename.concat !work name in
  Owned.track_file p;
  p

let ok_or_fail what = function
  | Ok x -> x
  | Error e -> failwith (Format.asprintf "%s: %a" what Sn.pp_error e)

let median_of_list l = median (Array.of_list l)

(* The median of a run's samples of [name], with their quartiles on
   stderr: the spread inside one run. *)
let summary name unit l =
  let a = Array.of_list l in
  Printf.eprintf "# %s: median %.6g %s, quartiles %.6g..%.6g over %d\n%!" name (median a) unit
    (percentile a 25.) (percentile a 75.) (Array.length a);
  median a

let self_rss_mb () = float_of_int (Owned.vm_hwm_kb 0) /. 1024.

(* ---- analysis: bytes to a first answer ------------------------------ *)

let first_subset = [ 0; 1; 2; 3; 9; 12; 60; 231 ]

let chain ?(config = Pl.default) ~image dist =
  let a = span "pipeline.run" (fun () -> Pl.run ~config dist) in
  let idx = span "query.index_build" (fun () -> Q.index a.Pl.store) in
  span "query.image_save" (fun () -> ok_or_fail "save_image" (Q.save_image image idx));
  let mapped = span "query.image_load" (fun () -> ok_or_fail "load_image" (Q.load_image image)) in
  let first = span "query.first_answer" (fun () -> Q.eval_syscalls mapped first_subset) in
  (a, idx, mapped, first)

let check_analysis what (a : Pl.analyzed) =
  let mism = Pl.spot_check a and quar = Pl.quarantined a in
  count ~attempts:(List.length a.Pl.dist.Package.packages) ~failures:(List.length mism + quar)
    (what ^ " packages spot-checked");
  if mism <> [] || quar > 0 then
    fail_check "%s: %d spot-check mismatches, %d quarantined" what (List.length mism) quar

let used_apis store = List.map Q.api_to_string (Core.Db.Store.used_apis store)

(* The mix answered from the mapped image must equal the heap index's
   answers bit for bit. *)
let check_mapped ~seed ~mapped ~heap ~apis n =
  let ops = Mix.draw_n (Mix.generator ~seed heap apis) n in
  let wrong =
    Array.fold_left
      (fun c op -> if Mix.agree ~tol:0. (Mix.answer mapped op) (Mix.answer heap op) then c else c + 1)
      0 ops
  in
  count ~attempts:n ~failures:wrong "mapped answers checked against the heap index";
  if wrong > 0 then fail_check "%d mapped answers differ from the heap index" wrong

(* ---- analysis layers, called from outside (traced runs) -------------

   Pipeline.run is one call, so its layers are timed by calling their
   public functions on the same inputs: Reader.parse and Binary.analyze
   over each distinct ELF payload not in [bins] yet, then Resolve over
   every ELF file against a fresh world. *)

let elf_payloads (dist : Package.distribution) =
  let seen = Hashtbl.create 1024 in
  let out = ref [] in
  let add bytes =
    let d = Digest.string bytes in
    if not (Hashtbl.mem seen d) then begin
      Hashtbl.replace seen d ();
      out := (d, bytes) :: !out
    end
  in
  List.iter (fun (_, b) -> add b) dist.Package.runtime;
  List.iter (fun (_, _, b) -> add b) dist.Package.shared_libs;
  List.iter
    (fun (p : Package.t) ->
      List.iter
        (fun (f : Package.file) ->
          match Classify.classify f.Package.bytes with
          | Classify.Elf_static | Elf_dynamic | Elf_shared_lib -> add f.Package.bytes
          | Script _ | Data -> ())
        p.Package.files)
    dist.Package.packages;
  List.rev !out

(* Returns the payloads analyzed and the resolver's memo hit ratio. *)
let decompose ?(bins = Hashtbl.create 4096) (dist : Package.distribution) =
  let fresh = List.filter (fun (d, _) -> not (Hashtbl.mem bins d)) (elf_payloads dist) in
  List.iter
    (fun (d, bytes) ->
      match span "elf.parse" (fun () -> Reader.parse bytes) with
      | Ok img -> Hashtbl.replace bins d (span "analysis.binary" (fun () -> Binary.analyze img))
      | Error _ -> fail_check "a payload failed to parse")
    fresh;
  let bin bytes = Hashtbl.find_opt bins (Digest.string bytes) in
  span "analysis.resolve" (fun () ->
      let named l = List.filter_map (fun (s, b) -> Option.map (fun x -> (s, x)) (bin b)) l in
      let runtime = named dist.Package.runtime in
      let libs = named (List.map (fun (s, _, b) -> (s, b)) dist.Package.shared_libs) in
      let sonames = List.map fst dist.Package.runtime in
      let world =
        Resolve.make_world
          ?ld_so:(List.assoc_opt "ld-linux-x86-64.so.2" runtime)
          ~libc_family:(fun s -> List.mem s sonames)
          (runtime @ libs)
      in
      List.iter
        (fun (p : Package.t) ->
          List.iter
            (fun (f : Package.file) ->
              match (Classify.classify f.Package.bytes, bin f.Package.bytes) with
              | (Classify.Elf_static | Elf_dynamic), Some b ->
                let total = Resolve.binary_footprint world b in
                ignore (Resolve.phased_footprint world b ~total)
              | Classify.Elf_shared_lib, Some b -> ignore (Resolve.binary_footprint world b)
              | _ -> ())
            p.Package.files)
        dist.Package.packages;
      let s = world.Resolve.stats in
      let lookups = s.Resolve.memo_hits + s.Resolve.memo_misses in
      ( List.length fresh,
        if lookups = 0 then 0. else float_of_int s.Resolve.memo_hits /. float_of_int lookups ))

(* Per-layer analysis metrics from the spans recorded since the last
   reset of [spans]. *)
let analysis_layers ~payloads ~memo =
  let parse = span_s "elf.parse" and binary = span_s "analysis.binary" in
  let resolve = span_s "analysis.resolve" and run = span_s "pipeline.run" in
  layer "elf.parse_s" parse;
  layer "elf.payloads" (float_of_int payloads);
  layer "analysis.binary_s" binary;
  layer "analysis.resolve_s" resolve;
  layer "analysis.resolve_memo_hit_ratio" memo;
  layer "pipeline.run_s" run;
  layer "pipeline.self_s" (run -. parse -. binary -. resolve);
  List.iter
    (fun n -> layer (n ^ "_s") (span_s n))
    [ "query.index_build"; "query.image_save"; "query.image_load"; "snapshot.encode"; "snapshot.delta" ]

let per_call_us f xs =
  Array.map
    (fun x ->
      let t0 = now_ns () in
      ignore (Sys.opaque_identity (f x));
      float_of_int (now_ns () - t0) *. 1e-3)
    xs

(* Query and Protocol.Bin timed call by call on the mix's own inputs:
   partial completeness over the first fleet slice, importance, and one
   scatter exchange (partial request + partial reply) through the
   binary codec. *)
let query_protocol_layers ~seed ~mapped ~apis =
  let ops = Array.to_list (Mix.draw_n (Mix.generator ~seed mapped apis) 4000) in
  let subsets = Array.of_list (List.filter_map (function Mix.Completeness s -> Some s | _ -> None) ops) in
  let points =
    Array.of_list (List.filter_map (function Mix.Importance a -> Some (Mix.api_exn a) | _ -> None) ops)
  in
  let lo, hi = List.hd (Q.shard_ranges (Q.n_packages mapped) 2) in
  let eval = per_call_us (fun s -> Q.eval_syscalls_partial mapped s ~lo ~hi) subsets in
  layer "query.eval_p50_us" (percentile eval 50.);
  layer "query.eval_p99_us" (percentile eval 99.);
  layer "query.importance_us" (median (per_call_us (Q.importance mapped) points));
  let exchanges =
    Array.mapi
      (fun i s ->
        let num, den = Q.eval_syscalls_partial mapped s ~lo ~hi in
        let id = Some (Json.Num (float_of_int i)) in
        ( { P.rq_id = id; rq_op = P.Partial_completeness { syscalls = s; phase = Q.All; lo; hi } },
          { P.rs_id = id; rs_result = Ok (P.Partial_r { lo; hi; num; den }) } ))
      subsets
  in
  let encode (rq, rs) = (P.Bin.encode_request rq, P.Bin.encode_response rs) in
  let frames = Array.map encode exchanges in
  (* a frame is magic byte + u32 length + payload; decode takes the payload *)
  let payload f = String.sub f 5 (String.length f - 5) in
  let decode (fq, fs) = (P.Bin.decode_request (payload fq), P.Bin.decode_response (payload fs)) in
  Array.iteri
    (fun i fr ->
      match decode fr with
      | Ok rq, Ok rs when (rq, rs) = exchanges.(i) -> ()
      | _ -> fail_check "Protocol.Bin round trip changed exchange %d" i)
    frames;
  layer "protocol.encode_us" (median (per_call_us encode exchanges));
  layer "protocol.decode_us" (median (per_call_us decode frames));
  layer "protocol.scatter_bytes"
    (median (Array.map (fun (a, b) -> float_of_int (String.length a + String.length b)) frames))

let gc_layers () =
  let s = Gc.quick_stat () in
  layer "gc.major_collections" (float_of_int s.Gc.major_collections);
  layer "gc.top_heap_mb" (float_of_int (s.Gc.top_heap_words * (Sys.word_size / 8)) /. 1048576.)

(* ---- serving: owned servers and fleets, open-loop phases ------------- *)

type served = { pids : int list; port : int; slices : string list }

let serve ~image ?slice tag =
  let args =
    [ "serve"; "--snapshot"; image; "--tcp"; "0" ]
    @ match slice with Some (lo, hi) -> [ "--slice"; Printf.sprintf "%d:%d" lo hi ] | None -> []
  in
  let log = Filename.concat !work (tag ^ ".log") in
  let pid = Owned.spawn ~log !lapis args in
  (* `serve --slice` cuts IMAGE.slice-LO-HI (via a .tmp) beside the image *)
  let slice_file =
    Option.map
      (fun (lo, hi) ->
        let p = Printf.sprintf "%s.slice-%d-%d" image lo hi in
        Owned.track_file (p ^ ".tmp");
        Owned.track_file p;
        p)
      slice
  in
  (pid, log, slice_file)

let await (pid, log) =
  match Owned.wait_port ~timeout_s:60. pid log with Ok port -> port | Error msg -> failwith msg

let first_answer port =
  let line = String.trim (Mix.json_line ~id:0 (Mix.Completeness first_subset)) in
  let reply = Loadgen.call ~port line in
  if reply = "" || Owned.find_sub reply {|"ok":false|} <> None then failwith ("first answer failed: " ^ reply)

let stop_served s =
  List.iter Owned.stop s.pids;
  List.iter Owned.remove_file s.slices

(* Operator cold start, from the saved image to the router's first
   answer: two `lapis serve --slice` shards, then `lapis fleet
   --connect` over them. *)
let start_fleet ~image ~n_packages =
  let shards =
    List.mapi (fun i r -> serve ~image ~slice:r (Printf.sprintf "shard%d" i)) (Q.shard_ranges n_packages 2)
  in
  let ports = List.map (fun (pid, log, _) -> await (pid, log)) shards in
  let connect = String.concat "," (List.map (Printf.sprintf "127.0.0.1:%d") ports) in
  let log = Filename.concat !work "router.log" in
  let router = Owned.spawn ~log !lapis [ "fleet"; "--connect"; connect; "--tcp"; "0" ] in
  let port = await (router, log) in
  first_answer port;
  { pids = router :: List.map (fun (p, _, _) -> p) shards; port; slices = List.filter_map (fun (_, _, s) -> s) shards }

let start_server ~image =
  let pid, log, _ = serve ~image "server" in
  let port = await (pid, log) in
  first_answer port;
  { pids = [ pid ]; port; slices = [] }

let rss_mb s = float_of_int (List.fold_left (fun acc pid -> acc + Owned.vm_hwm_kb pid) 0 s.pids) /. 1024.

let router_gauges port =
  match Json.parse (Loadgen.call ~port {|{"op":"stats","id":0}|}) with
  | Ok j -> fun k -> (match Json.member k j with Some (Json.Num f) -> f | _ -> 0.)
  | Error _ -> fun _ -> 0.

type phase = {
  scatter : float array;  (** ms, answered correctly, in schedule order *)
  point : float array;
  errors : int;
  wrong : int;
  n : int;
  throughput : float;
  backlog : int;
  late_p99 : float;
}

(* One open-loop phase: send [ops] at [rate] and check every reply. *)
let open_loop ~port ~rate ~ops ~expect =
  let r = Loadgen.run ~port ~rate ~deadline_s (Array.mapi (fun i op -> Mix.json_line ~id:i op) ops) in
  let n = Array.length ops in
  let errors = ref 0 and wrong = ref 0 and good = ref 0 and last = ref 0 in
  let scatter = ref [] and point = ref [] in
  for i = n - 1 downto 0 do
    if Loadgen.answered ~deadline_s r i then begin
      last := max !last r.Loadgen.recv.(i);
      match Mix.check_reply ~id:i ~expect:expect.(i) r.Loadgen.lines.(i) with
      | Ok () ->
        incr good;
        let l = Loadgen.latency_ms r i in
        (match Mix.cls ops.(i) with Mix.Scatter -> scatter := l :: !scatter | Mix.Point -> point := l :: !point)
      | Error ("wrong-answer" | "bad-reply") -> incr wrong
      | Error _ -> incr errors
    end
    else incr errors
  done;
  {
    scatter = Array.of_list !scatter;
    point = Array.of_list !point;
    errors = !errors;
    wrong = !wrong;
    n;
    throughput = (if !last = 0 then 0. else float_of_int !good /. secs_of_ns (!last - r.Loadgen.due.(0)));
    backlog = Loadgen.backlog_at_end r;
    late_p99 = percentile (Loadgen.late_ms r) 99.;
  }

let draw_phase g ~reference ~rate ~secs =
  let ops = Mix.draw_n g (max 1 (int_of_float (float_of_int rate *. secs))) in
  (ops, Array.map (Mix.answer reference) ops)

(* The reference phase: latencies at the fixed rate. An error or a
   missed deadline fails its request; a wrong answer also fails the
   run. *)
let reference_phase ~what ~port ~rate ~ops ~expect =
  let ph = open_loop ~port ~rate ~ops ~expect in
  count ~attempts:ph.n ~failures:(ph.errors + ph.wrong) what;
  if ph.wrong > 0 then fail_check "%s: %d wrong answers" what ph.wrong;
  if ph.late_p99 > late_limit_ms then
    Printf.eprintf "# %s: latencies invalid, the sender ran %.3f ms late at p99\n%!" what ph.late_p99;
  ph

(* The highest rate the fleet carries with scatter p99 within the
   limit, no failures, no growing backlog and a sender on time: the
   best passing rung's measured throughput, or, where the next rung
   missed on latency alone, the rate interpolated between the two on
   log p99 (the rungs alone would quantize it). The ladder stops after
   two misses in a row, so one noisy rung does not end it. Errors on a
   rung past capacity are the measurement, not failures; wrong answers
   on any rung are. *)
let capacity ~port ~g ~reference ~secs rungs =
  let best = ref 0. in
  let rec climb prev misses = function
    | [] -> ()
    | rate :: rest ->
      let ops, expect = draw_phase g ~reference ~rate ~secs in
      let ph = open_loop ~port ~rate ~ops ~expect in
      count ~attempts:ph.n ~failures:ph.wrong "capacity-ladder requests answered wrongly";
      if ph.wrong > 0 then fail_check "ladder %d q/s: %d wrong answers" rate ph.wrong;
      let p99 = percentile ph.scatter 99. in
      let clean =
        ph.errors = 0 && ph.wrong = 0 && ph.backlog <= max 20 (rate / 100) && ph.late_p99 <= late_limit_ms
      in
      let pass = clean && p99 <= scatter_p99_limit_ms in
      Printf.eprintf
        "# ladder %5d q/s: %s (scatter p99 %.3f ms, errors %d, backlog %d, late p99 %.3f ms, %.0f q/s)\n%!"
        rate (if pass then "pass" else "miss") p99 ph.errors ph.backlog ph.late_p99 ph.throughput;
      if pass then begin
        best := Float.max !best ph.throughput;
        climb (Some (rate, p99)) 0 rest
      end
      else begin
        (match prev with
         | Some (r0, q0) when clean ->
           let f = log (scatter_p99_limit_ms /. q0) /. log (p99 /. q0) in
           best := Float.max !best (float_of_int r0 +. (float_of_int (rate - r0) *. f))
         | _ -> ());
        if misses = 0 then climb None 1 rest
      end
  in
  climb None 0 rungs;
  !best

let fleet_layers ph cap =
  layer "fleet.scatter_p50_ms" (percentile ph.scatter 50.);
  layer "fleet.scatter_p99_ms" (percentile ph.scatter 99.);
  layer "fleet.point_p50_ms" (percentile ph.point 50.);
  layer "fleet.point_p99_ms" (percentile ph.point 99.);
  layer "fleet.capacity_qps" cap

(* A sliced fleet on [image]: the reference phase, then the capacity
   ladder. Returns the phase, the router's stats gauges over the phase
   and the capacity. *)
let drive_fleet ~sc ~fleet ~g ~reference ~ops ~expect ~rung_s ~ladder =
  let before = router_gauges fleet.port in
  if !plant = Kill_shard then
    ignore
      (Thread.create
         (fun () ->
           Thread.delay (float_of_int (Array.length ops) /. float_of_int sc.reference_rate /. 2.);
           Owned.kill_now (List.nth fleet.pids 1))
         ());
  let ph = reference_phase ~what:"fleet requests" ~port:fleet.port ~rate:sc.reference_rate ~ops ~expect in
  let after = router_gauges fleet.port in
  let cap = if ladder then capacity ~port:fleet.port ~g ~reference ~secs:rung_s sc.ladder else nan in
  (ph, (fun k -> after k -. before k), cap)

(* fleet-mixed's gated serving figure: [reps] closed-loop drains, each
   of a fresh batch of the mix, through the router with
   [drain_window] requests outstanding; the median drain time. Every
   reply is checked; a missing or error reply fails its request, a
   wrong answer also fails the run. *)
let drains ~sc ~port ~g ~reference reps =
  let times =
    List.init reps (fun _ ->
        let ops = Mix.draw_n g sc.drain_requests in
        let expect = Array.map (Mix.answer reference) ops in
        let lines, s =
          Loadgen.drain ~port ~window:drain_window ~deadline_s (Array.mapi (fun i op -> Mix.json_line ~id:i op) ops)
        in
        let errors = ref 0 and wrong = ref 0 in
        Array.iteri
          (fun i line ->
            if line = "" then incr errors
            else
              match Mix.check_reply ~id:i ~expect:expect.(i) line with
              | Ok () -> ()
              | Error ("wrong-answer" | "bad-reply") -> incr wrong
              | Error _ -> incr errors)
          lines;
        count ~attempts:(Array.length ops) ~failures:(!errors + !wrong) "drained fleet requests";
        if !wrong > 0 then fail_check "drain: %d wrong answers" !wrong;
        s)
  in
  summary "analyze_s" "s" times

(* Traced runs: the serving layers on [image]. The fleet part is the
   fleet-mixed run's own, or a short probe fleet; then the same
   schedule and mix go to one full-image server with no router. *)
let serving_layers ~sc ~seed ~image ~apis ~fleet =
  let reference = ok_or_fail "load_image" (Q.load_image image) in
  let g = Mix.generator ~seed:(seed + 1) reference apis in
  let (ph, gauges, cap), ops, expect =
    match fleet with
    | Some (x, ops, expect) -> (x, ops, expect)
    | None ->
      let ops, expect = draw_phase g ~reference ~rate:sc.reference_rate ~secs:sc.probe_s in
      let f = start_fleet ~image ~n_packages:(Q.n_packages reference) in
      ( Fun.protect ~finally:(fun () -> stop_served f) (fun () ->
            drive_fleet ~sc ~fleet:f ~g ~reference ~ops ~expect ~rung_s:(sc.probe_s /. 2.) ~ladder:true),
        ops,
        expect )
  in
  fleet_layers ph cap;
  let srv = start_server ~image in
  let single =
    Fun.protect ~finally:(fun () -> stop_served srv) (fun () ->
        reference_phase ~what:"single-server requests" ~port:srv.port ~rate:sc.reference_rate ~ops ~expect)
  in
  let p50 a = percentile a 50. in
  layer "server.p50_ms" (p50 single.scatter);
  layer "server.p99_ms" (percentile single.scatter 99.);
  layer "router.added_p50_ms" (p50 ph.scatter -. p50 single.scatter);
  let hits = gauges "cache_hits" and misses = gauges "cache_misses" in
  layer "router.cache_hit_ratio" (if hits +. misses > 0. then hits /. (hits +. misses) else 0.);
  layer "router.batch_frames" (gauges "batches");
  layer "router.shed" (gauges "shed");
  let late = Float.max ph.late_p99 single.late_p99 in
  layer "loadgen.late_p99_ms" late;
  layer "loadgen.valid" (if late <= late_limit_ms then 1. else 0.)

(* ---- traced analysis ------------------------------------------------ *)

(* One evolved release through a cache primed with release 0, for the
   workloads that publish no release of their own. *)
let release_probe ~config ~cache ~base =
  let dist = span "distro.evolve" (fun () -> G.evolve ~config ~release:1 ()) in
  let h0 = Stage.counter "incremental:hits" and m0 = Stage.counter "incremental:misses" in
  let a = Pl.run ~config:{ Pl.default with shared_cache = Some cache } dist in
  let hits = Stage.counter "incremental:hits" - h0 and misses = Stage.counter "incremental:misses" - m0 in
  layer "distro.evolve_s" (span_s "distro.evolve");
  layer "pipeline.cache_reuse_ratio" (float_of_int hits /. float_of_int (max 1 (hits + misses)));
  let delta = span "snapshot.delta" (fun () -> Sn.to_delta_string ~base (Sn.of_analyzed a)) in
  layer "snapshot.delta_bytes" (float_of_int (String.length delta))

(* What a traced cold-analyze or fleet-mixed run adds: release 0
   decomposed layer by layer, the chain with spans on and Pipeline.run
   on one domain, the snapshot codec, one evolved release, the query
   and codec layers and the serving layers. *)
let trace_analysis ~sc ~seed ~config ~fleet dist =
  tracing := true;
  let image = work_file "traced.img" in
  let payloads, memo = decompose dist in
  let cache = Pl.new_cache () in
  let a, _, mapped, _ = chain ~config:{ Pl.default with domains = Some 1; shared_cache = Some cache } ~image dist in
  let snap = Sn.of_analyzed a in
  let full = span "snapshot.encode" (fun () -> Sn.to_string snap) in
  layer "snapshot.full_bytes" (float_of_int (String.length full));
  release_probe ~config ~cache ~base:snap;
  analysis_layers ~payloads ~memo;
  layer "query.image_bytes" (float_of_int (Unix.stat image).Unix.st_size);
  let apis = used_apis a.Pl.store in
  query_protocol_layers ~seed ~mapped ~apis;
  serving_layers ~sc ~seed ~image ~apis ~fleet;
  gc_layers ()

(* ---- workloads ------------------------------------------------------ *)

(* [f] run [n] times, each from a compacted heap after [reset] undid
   the previous run, with the peak resident set restarted. Returns the
   last result (the only one kept alive), the median time and the
   median peak in MB. *)
let repeat ?(reset = ignore) ~what n f =
  let last = ref None and times = ref [] and peaks = ref [] in
  for _ = 1 to n do
    reset ();
    last := None;
    Gc.compact ();
    Owned.reset_hwm ();
    let r, s = time f in
    last := Some r;
    times := s :: !times;
    peaks := self_rss_mb () :: !peaks
  done;
  (Option.get !last, summary what "s" !times, summary (what ^ " peak") "MB" !peaks)

let setups ?reset sc f =
  let r, s, _ = repeat ?reset ~what:"setup_s" sc.setup_reps f in
  (r, s)

let cold_analyze ~sc ~seed ~secs ~trace =
  let config = { G.default_config with n_packages = sc.cold_packages; seed } in
  let dist, setup_s = setups sc (fun () -> G.generate ~config ()) in
  let image = work_file "cold.img" in
  let (a, heap, mapped, first), analyze_s, peak = repeat ~what:"analyze_s" (cold_reps secs) (fun () -> chain ~image dist) in
  check_analysis "cold-analyze" a;
  if not (Float.equal first (Q.eval_syscalls heap first_subset)) then
    fail_check "mapped first answer %.17g differs from the heap index" first;
  check_mapped ~seed ~mapped ~heap ~apis:(used_apis a.Pl.store) sc.mapped_checks;
  e2e := [ ("setup_s", setup_s); ("analyze_s", analyze_s); ("peak_rss_mb", peak) ];
  if trace then begin
    layer "distro.generate_s" setup_s;
    trace_analysis ~sc ~seed ~config ~fleet:None dist
  end

(* One release published: analyzed through the shared cache, indexed,
   saved as an image, and encoded as a format-5 delta on the previous
   release. *)
let publish ~cache ~base ~image ~delta_path dist =
  let a = span "pipeline.run" (fun () -> Pl.run ~config:{ Pl.default with shared_cache = Some cache } dist) in
  let snap = Sn.of_analyzed a in
  let idx = span "query.index_build" (fun () -> Q.index a.Pl.store) in
  span "query.image_save" (fun () -> ok_or_fail "save_image" (Q.save_image image idx));
  let delta = span "snapshot.delta" (fun () -> Sn.to_delta_string ~base snap) in
  Out_channel.with_open_bin delta_path (fun oc -> output_string oc delta);
  (a, snap, idx, String.length delta)

let release_stream ~sc ~seed ~secs ~trace =
  let config = { G.default_config with n_packages = sc.stream_packages; seed } in
  let image = work_file "release.img" and delta_path = work_file "release.delta" in
  let gen_times = ref [] in
  let (cache, a0), setup_s =
    setups sc (fun () ->
        let dist, g = time (fun () -> G.generate ~config ()) in
        gen_times := g :: !gen_times;
        let cache = Pl.new_cache () in
        let a = Pl.run ~config:{ Pl.default with shared_cache = Some cache } dist in
        ok_or_fail "save_image" (Q.save_image image (Q.index a.Pl.store));
        (cache, a))
  in
  check_analysis "release 0" a0;
  let h0 = Stage.counter "incremental:hits" and m0 = Stage.counter "incremental:misses" in
  let rel_times = ref [] and evolve_times = ref [] and peaks = ref [] in
  (* only the last release's inputs and outputs are kept *)
  let last = ref (0, None, Sn.of_analyzed a0, None) in
  for _ = 1 to stream_releases secs do
    let r, _, base, _ = !last in
    last := (r, None, base, None);
    Owned.reset_hwm ();
    let dist, evolve_s = time (fun () -> G.evolve ~config ~release:(r + 1) ()) in
    let (a, snap, idx, _), s = time (fun () -> publish ~cache ~base ~image ~delta_path dist) in
    let quar = Pl.quarantined a in
    count ~attempts:(List.length dist.Package.packages) ~failures:quar
      (Printf.sprintf "release %d packages analyzed without a quarantined binary" (r + 1));
    if quar > 0 then fail_check "release %d quarantined %d binaries" (r + 1) quar;
    rel_times := s :: !rel_times;
    evolve_times := evolve_s :: !evolve_times;
    peaks := self_rss_mb () :: !peaks;
    last := (r + 1, Some (dist, base), snap, Some idx)
  done;
  let hits = Stage.counter "incremental:hits" - h0 and misses = Stage.counter "incremental:misses" - m0 in
  let r_last, prev, snap, idx = !last in
  let dist, base = Option.get prev and idx = Option.get idx in
  (* the incremental release must be byte-equal to a from-scratch
     analysis, and its delta must rebuild it from the previous one *)
  let published = Sn.to_string snap in
  let check ok what =
    count ~attempts:1 ~failures:(if ok then 0 else 1) what;
    if not ok then fail_check "release %d: %s failed" r_last what
  in
  check (Sn.to_string (Sn.of_analyzed (Pl.run dist)) = published) "incremental snapshot equal to a from-scratch one";
  check
    (match Sn.apply_delta ~base (In_channel.with_open_bin delta_path In_channel.input_all) with
     | Ok s -> Sn.to_string s = published
     | Error _ -> false)
    "delta rebuilding the release";
  let mapped = ok_or_fail "load_image" (Q.load_image image) in
  let apis = used_apis snap.Sn.store in
  check_mapped ~seed ~mapped ~heap:idx ~apis sc.mapped_checks;
  let release_s = summary "analyze_s" "s" !rel_times in
  e2e := [ ("setup_s", setup_s); ("analyze_s", release_s); ("peak_rss_mb", summary "analyze_s peak" "MB" !peaks) ];
  if trace then begin
    layer "distro.generate_s" (median_of_list !gen_times);
    layer "distro.evolve_s" (median_of_list !evolve_times);
    layer "pipeline.cache_reuse_ratio" (float_of_int hits /. float_of_int (max 1 (hits + misses)));
    (* three more releases with spans on, each also decomposed from
       outside (parse and analysis of the payloads no earlier release
       had, resolution of every binary); the layers are per-release
       medians *)
    tracing := true;
    let bins = Hashtbl.create 4096 in
    ignore (decompose ~bins dist);
    let kept = !layers and per = ref [] and base = ref snap in
    for r = r_last + 1 to r_last + 3 do
      let dist = G.evolve ~config ~release:r () in
      reset_spans ();
      layers := [];
      let payloads, memo = decompose ~bins dist in
      let _, s, _, delta_bytes = publish ~cache ~base:!base ~image ~delta_path dist in
      ignore (span "query.image_load" (fun () -> ok_or_fail "load_image" (Q.load_image image)));
      base := s;
      let full = span "snapshot.encode" (fun () -> Sn.to_string s) in
      analysis_layers ~payloads ~memo;
      layer "snapshot.full_bytes" (float_of_int (String.length full));
      layer "snapshot.delta_bytes" (float_of_int delta_bytes);
      layer "query.image_bytes" (float_of_int (Unix.stat image).Unix.st_size);
      per := !layers :: !per
    done;
    layers := kept;
    List.iter (fun (name, _) -> layer name (median_of_list (List.map (List.assoc name) !per))) (List.hd !per);
    query_protocol_layers ~seed ~mapped ~apis;
    serving_layers ~sc ~seed ~image ~apis ~fleet:None;
    gc_layers ()
  end

let fleet_mixed ~sc ~seed ~secs ~trace =
  let config = { G.default_config with n_packages = sc.fleet_packages; seed } in
  let image = work_file "fleet.img" in
  (* the index the fleet serves is built before set-up: an operator
     starts from an image already on disk *)
  let dist, gen_s = time (fun () -> G.generate ~config ()) in
  let a, heap, reference, first = chain ~image dist in
  check_analysis "fleet index" a;
  if not (Float.equal first (Q.eval_syscalls heap first_subset)) then
    fail_check "mapped first answer %.17g differs from the heap index" first;
  let apis = used_apis a.Pl.store and n_packages = Q.n_packages reference in
  let g = Mix.generator ~seed reference apis in
  let ops, expect = draw_phase g ~reference ~rate:sc.reference_rate ~secs:(secs *. 0.25) in
  (* planted fault: the first completeness answer expected 1e-6 off *)
  (if !plant = Wrong_answer then
     match Array.find_index (function Mix.Completeness _ -> true | _ -> false) ops with
     | Some i -> (match expect.(i) with Mix.Value v -> expect.(i) <- Mix.Value (v +. 1e-6) | Mix.Ranked _ -> ())
     | None -> ());
  let running = ref None in
  let fleet, setup_s =
    setups sc
      ~reset:(fun () -> Option.iter stop_served !running)
      (fun () ->
        let f = start_fleet ~image ~n_packages in
        running := Some f;
        f)
  in
  let (result, serve_s), rss =
    Fun.protect ~finally:(fun () -> stop_served fleet) (fun () ->
        let serve_s = drains ~sc ~port:fleet.port ~g ~reference (drain_reps secs) in
        let r =
          drive_fleet ~sc ~fleet ~g ~reference ~ops ~expect ~rung_s:(Float.max 0.3 (secs *. 0.06)) ~ladder:trace
        in
        ((r, serve_s), rss_mb fleet))
  in
  let ph, _, cap = result in
  fleet_layers ph cap;
  Printf.eprintf "# fleet at %d q/s: scatter p50 %.3f p99 %.3f ms, point p50 %.3f p99 %.3f ms\n%!"
    sc.reference_rate (percentile ph.scatter 50.) (percentile ph.scatter 99.) (percentile ph.point 50.)
    (percentile ph.point 99.);
  e2e := [ ("setup_s", setup_s); ("analyze_s", serve_s); ("peak_rss_mb", rss) ];
  if trace then begin
    layer "distro.generate_s" gen_s;
    trace_analysis ~sc ~seed ~config ~fleet:(Some (result, ops, expect)) dist
  end

(* ---- output --------------------------------------------------------- *)

let end_to_end = [ ("setup_s", "s"); ("analyze_s", "s"); ("peak_rss_mb", "MB") ]

let per_layer =
  [ ("distro.generate_s", "s"); ("distro.evolve_s", "s");
    ("elf.parse_s", "s"); ("elf.payloads", "count");
    ("analysis.binary_s", "s"); ("analysis.resolve_s", "s"); ("analysis.resolve_memo_hit_ratio", "ratio");
    ("pipeline.run_s", "s"); ("pipeline.self_s", "s"); ("pipeline.cache_reuse_ratio", "ratio");
    ("snapshot.encode_s", "s"); ("snapshot.full_bytes", "bytes");
    ("snapshot.delta_s", "s"); ("snapshot.delta_bytes", "bytes");
    ("query.index_build_s", "s"); ("query.image_save_s", "s"); ("query.image_load_s", "s");
    ("query.image_bytes", "bytes");
    ("query.eval_p50_us", "us"); ("query.eval_p99_us", "us"); ("query.importance_us", "us");
    ("protocol.encode_us", "us"); ("protocol.decode_us", "us"); ("protocol.scatter_bytes", "bytes");
    ("fleet.scatter_p50_ms", "ms"); ("fleet.scatter_p99_ms", "ms");
    ("fleet.point_p50_ms", "ms"); ("fleet.point_p99_ms", "ms"); ("fleet.capacity_qps", "1/s");
    ("server.p50_ms", "ms"); ("server.p99_ms", "ms"); ("router.added_p50_ms", "ms");
    ("router.cache_hit_ratio", "ratio"); ("router.batch_frames", "count"); ("router.shed", "count");
    ("gc.major_collections", "count"); ("gc.top_heap_mb", "MB");
    ("loadgen.late_p99_ms", "ms"); ("loadgen.valid", "count"); ("trace.overhead_s", "s") ]

let () =
  let workload = ref "" and seed = ref 1 and secs = ref 10. and trace = ref 0 and sc = ref full in
  Arg.parse
    [ ("--workload", Arg.Set_string workload, "NAME cold-analyze | release-stream | fleet-mixed");
      ("--seed", Arg.Set_int seed, "N input seed");
      ("--seconds", Arg.Set_float secs, "S length of the timed phase");
      ("--trace", Arg.Set_int trace, "0|1 end-to-end metrics, or the traced per-layer run");
      ("--lapis", Arg.Set_string lapis, "PATH the lapis executable");
      ("--work", Arg.Set_string work, "DIR directory for temporary files");
      ("--scale", Arg.String (fun s -> sc := if s = "tiny" then tiny else full), "full|tiny input sizes");
      ( "--plant",
        Arg.String
          (fun s -> plant := match s with "wrong-answer" -> Wrong_answer | "kill-shard" -> Kill_shard | _ -> No_plant),
        "FAULT wrong-answer | kill-shard (the benchmark's own tests)" ) ]
    (fun a -> raise (Arg.Bad a))
    "bench.exe --workload NAME --seed N --seconds S --trace 0|1";
  let run =
    match !workload with
    | "cold-analyze" -> cold_analyze
    | "release-stream" -> release_stream
    | "fleet-mixed" -> fleet_mixed
    | w ->
      Printf.eprintf "bench: unknown workload %S\n" w;
      exit 2
  in
  let trace = !trace = 1 in
  (try run ~sc:!sc ~seed:!seed ~secs:!secs ~trace
   with e -> fail_check "%s: %s" !workload (Printexc.to_string e));
  Owned.cleanup ();
  if trace then begin
    layer "trace.overhead_s" (float_of_int (span_calls ()) *. span_cost_s ());
    report_spans stderr
  end;
  let names, values = if trace then (per_layer, !layers) else (end_to_end, !e2e) in
  let metrics = List.map (fun (n, u) -> metric n u (Option.value ~default:nan (List.assoc_opt n values))) names in
  List.iter (fun m -> Printf.eprintf "# %-34s %16.6f %s\n" m.m_name m.m_value m.m_unit) metrics;
  let correct = emit ~correct:!checks_ok ~attempted:(max 1 !attempted) ~failed:!failed metrics in
  exit (if correct && !failed = 0 then 0 else 1)
