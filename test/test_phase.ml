(* Tests for temporal phase attribution: calibration against the
   generator's planted init/serving ground truth, the union invariant
   that keeps unphased results bit-identical, phase-filtered
   completeness monotonicity, and the snapshot phase fields
   (round-trip, plus the refusal of a pre-phase format-2 file). *)

module Api = Core.Apidb.Api
module Store = Core.Db.Store
module Snapshot = Core.Db.Snapshot
module Query = Core.Query.Engine
module Phases = Core.Study.Phases
module Bitset = Core.Perf.Bitset
module Rng = Core.Distro.Rng

let env = lazy (Core.Study.Env.create_small ())
let index () = (Lazy.force env).Core.Study.Env.index
let store () = (Lazy.force env).Core.Study.Env.store

(* --- calibration against planted ground truth -------------------------- *)

let test_audit_calibration () =
  let a = Phases.audit (Lazy.force env) in
  Alcotest.(check bool) "ground truth present" true (a.Phases.a_packages > 0);
  Alcotest.(check bool) "real two-phase programs planted" true
    (a.Phases.a_phased > 0);
  (* the conservative contract: widening is allowed, misses are not —
     a phase-restricted seccomp policy built on a false negative would
     kill the program at runtime *)
  Alcotest.(check int) "init false negatives"
    0 a.Phases.a_init.Phases.pa_fn;
  Alcotest.(check int) "serving false negatives"
    0 a.Phases.a_serving.Phases.pa_fn;
  Alcotest.(check int) "union violations" 0 a.Phases.a_union_violations;
  Alcotest.(check bool) "audit verdict" true (Phases.audit_passed a)

(* --- init ∪ serving = total -------------------------------------------- *)

let test_union_invariant_all_rows () =
  (* deterministic sweep over every row the pipeline produced: the
     phase slices must reassemble the exact footprint, on packages and
     binaries alike — this equality is what guarantees every unphased
     query result is unchanged by the phase machinery *)
  let store = store () in
  Array.iter
    (fun (p : Store.pkg_row) ->
      if
        not
          (Api.Set.equal
             (Api.Set.union p.Store.pr_init p.Store.pr_serving)
             p.Store.pr_apis)
      then Alcotest.failf "package %s: init ∪ serving <> total" p.Store.pr_name)
    store.Store.packages;
  List.iter
    (fun (r : Store.bin_row) ->
      if
        not
          (Api.Set.equal
             (Api.Set.union r.Store.br_init r.Store.br_serving)
             r.Store.br_resolved.Core.Analysis.Footprint.apis)
      then Alcotest.failf "binary %s: init ∪ serving <> resolved"
          r.Store.br_path)
    store.Store.bins

let qcheck_union_membership =
  (* membership view of the same invariant, over random (package, api)
     probes: an API is in the footprint iff it is in at least one
     phase slice *)
  QCheck2.Test.make ~count:500
    ~name:"api ∈ footprint <=> api ∈ init ∪ serving"
    QCheck2.Gen.(pair (int_range 0 100_000) (int_range 0 450))
    (fun (pi, nr) ->
      let store = store () in
      let p = store.Store.packages.(pi mod Array.length store.Store.packages) in
      let api = Api.Syscall nr in
      Api.Set.mem api p.Store.pr_apis
      = (Api.Set.mem api p.Store.pr_init
         || Api.Set.mem api p.Store.pr_serving))

(* --- phase-filtered completeness monotonicity -------------------------- *)

let qcheck_phase_completeness_monotone =
  (* a phase requirement set is a subset of the total footprint, so
     the same syscall set can only satisfy MORE of each package's
     phase needs: phased completeness >= unphased. (The issue text
     stated this inequality the other way round; subset-ness makes
     >= the only possible direction.) *)
  let gen_subset =
    QCheck2.Gen.(
      let* k = int_range 1 180 in
      let* seed = int_range 0 0x3fffffff in
      return (k, seed))
  in
  QCheck2.Test.make ~count:120 ~name:"phased completeness >= unphased"
    gen_subset (fun (k, seed) ->
      let idx = index () in
      let rng = Rng.create seed in
      let all_nrs =
        Array.to_list Core.Apidb.Syscall_table.all
        |> List.map (fun (e : Core.Apidb.Syscall_table.entry) ->
               e.Core.Apidb.Syscall_table.nr)
      in
      let nrs = Rng.sample rng k all_nrs in
      let all = Query.eval_syscalls idx nrs in
      let init = Query.eval_syscalls ~phase:Query.Init idx nrs in
      let serving = Query.eval_syscalls ~phase:Query.Serving idx nrs in
      init >= all -. 1e-12 && serving >= all -. 1e-12)

let test_phase_all_is_default () =
  (* ~phase:All must take exactly the unphased path *)
  let idx = index () in
  let nrs = [ 0; 1; 2; 9; 10; 158; 231 ] in
  Alcotest.(check bool) "All = default" true
    (Float.equal
       (Query.eval_syscalls ~phase:Query.All idx nrs)
       (Query.eval_syscalls idx nrs))

(* --- snapshot format 3: phases round-trip ------------------------------ *)

let test_snapshot_phase_roundtrip () =
  let analyzed = Core.Study.Env.analyzed_exn (Lazy.force env) in
  let snap = Snapshot.of_analyzed analyzed in
  let snap' =
    match Snapshot.of_string (Snapshot.to_string snap) with
    | Ok s -> s
    | Error e -> Alcotest.failf "decode: %a" Snapshot.pp_error e
  in
  let ps = snap.Snapshot.store.Store.packages in
  let ps' = snap'.Snapshot.store.Store.packages in
  Alcotest.(check int) "package count" (Array.length ps) (Array.length ps');
  let phased = ref 0 in
  Array.iteri
    (fun i (p : Store.pkg_row) ->
      let p' = ps'.(i) in
      if not (Api.Set.equal p.Store.pr_init p'.Store.pr_init) then
        Alcotest.failf "package %s: pr_init changed" p.Store.pr_name;
      if not (Api.Set.equal p.Store.pr_serving p'.Store.pr_serving) then
        Alcotest.failf "package %s: pr_serving changed" p.Store.pr_name;
      if not (Api.Set.equal p'.Store.pr_init p'.Store.pr_serving) then
        incr phased)
    ps;
  (* the round-trip must carry real attribution, not a degenerate
     everything-in-both-phases encoding *)
  Alcotest.(check bool) "some phased packages survive" true (!phased > 0)

(* --- snapshot format 2: refused ----------------------------------------- *)

(* A hand-rolled format-2 writer for a tiny store, mirroring the v2
   wire layout (same as v3 minus the two phase sets per package/binary
   row). The current writer only emits format 6, so the treatment of
   an old file has to be exercised against synthesized v2 bytes. *)
let v2_bytes ~apis ~elf_apis =
  let b = Buffer.create 256 in
  let w_varint n =
    let n = ref n in
    let stop = ref false in
    while not !stop do
      let byte = !n land 0x7f in
      n := !n lsr 7;
      if !n = 0 then begin
        Buffer.add_char b (Char.chr byte);
        stop := true
      end
      else Buffer.add_char b (Char.chr (byte lor 0x80))
    done
  in
  let w_int i = w_varint ((i lsl 1) lxor (i asr 62)) in
  let w_str s =
    w_varint (String.length s);
    Buffer.add_string b s
  in
  let w_float f =
    let scratch = Bytes.create 8 in
    Bytes.set_int64_le scratch 0 (Int64.bits_of_float f);
    Buffer.add_bytes b scratch
  in
  (* dictionary in writer interning order: pr_apis first, then
     pr_apis_elf (a subset here, so it adds nothing) *)
  let dict = List.sort_uniq compare apis in
  let id api =
    let rec go i = function
      | [] -> Alcotest.failf "api not in dict"
      | a :: _ when a = api -> i
      | _ :: tl -> go (i + 1) tl
    in
    go 0 dict
  in
  let w_set set =
    let bits = Bitset.of_list (List.length dict) (List.map id set) in
    w_str (Bitset.to_bytes bits)
  in
  (* payload: meta ints, source key, dict, one package row, no
     binaries, no rejects *)
  w_int 7;
  w_int 1;
  w_int 1000;
  w_str "v2-test";
  w_varint (List.length dict);
  List.iter
    (fun api ->
      match api with
      | Api.Syscall nr ->
        Buffer.add_char b '\000';
        w_int nr
      | _ -> Alcotest.failf "v2 fixture only plants syscalls")
    dict;
  w_varint 1;
  w_str "pkg-v2";
  w_int 1000;
  w_float 0.5;
  w_varint 0;
  Buffer.add_char b '\000';
  w_set apis;
  w_set elf_apis;
  w_varint 0;
  w_varint 0;
  let payload = Buffer.contents b in
  let out = Buffer.create (36 + String.length payload) in
  Buffer.add_string out "LAPISNAP";
  let scratch = Bytes.create 8 in
  Bytes.set_int32_le scratch 0 2l;
  Buffer.add_subbytes out scratch 0 4;
  Buffer.add_string out (Digest.string payload);
  Bytes.set_int64_le scratch 0 (Int64.of_int (String.length payload));
  Buffer.add_bytes out scratch;
  Buffer.add_string out payload;
  Buffer.contents out

let test_snapshot_v2_refused () =
  (* a well-formed pre-phase file: its rows carry no attribution, and
     this build reads only the formats it writes, so it must come back
     as the structured version error — not as a decode of the wrong
     layout *)
  let apis = [ Api.Syscall 0; Api.Syscall 1; Api.Syscall 60 ] in
  let bytes = v2_bytes ~apis ~elf_apis:[ Api.Syscall 0 ] in
  match Snapshot.of_string bytes with
  | Ok _ -> Alcotest.fail "format-2 file decoded"
  | Error (Snapshot.Unsupported_version v) ->
    Alcotest.(check int) "reported version" 2 v
  | Error e -> Alcotest.failf "v2 decode: %a" Snapshot.pp_error e

let () =
  Alcotest.run "phase"
    [ ( "calibration",
        [ Alcotest.test_case "audit vs planted truth" `Quick
            test_audit_calibration ] );
      ( "union-invariant",
        [ Alcotest.test_case "all rows" `Quick test_union_invariant_all_rows;
          QCheck_alcotest.to_alcotest qcheck_union_membership ] );
      ( "completeness",
        [ QCheck_alcotest.to_alcotest qcheck_phase_completeness_monotone;
          Alcotest.test_case "All is the default path" `Quick
            test_phase_all_is_default ] );
      ( "snapshot",
        [ Alcotest.test_case "format-3 round-trip" `Quick
            test_snapshot_phase_roundtrip;
          Alcotest.test_case "format-2 is refused" `Quick
            test_snapshot_v2_refused ] )
    ]
