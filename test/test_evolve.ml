(* Tests for the living distribution: evolution determinism and
   Rng-split isolation, the incremental analysis cache (bit-identity
   with a from-scratch run plus the hit/miss counters), delta
   snapshots (round-trip, size, damage goldens, byte goldens, row
   identity) and the release-aware source_key. *)

module G = Core.Distro.Generator
module P = Core.Distro.Package
module Pipeline = Core.Db.Pipeline
module Snapshot = Core.Db.Snapshot
module Store = Core.Db.Store
module Stage = Core.Perf.Stage
module Api = Core.Apidb.Api
module Footprint = Core.Analysis.Footprint

let config = { G.default_config with n_packages = 60 }

(* worlds are deterministic, so build each release once and share *)
let r0 = lazy (G.evolve ~config ~release:0 ())
let r2 = lazy (G.evolve ~config ~release:2 ())
let r3 = lazy (G.evolve ~config ~release:3 ())

let file_digests (d : P.distribution) =
  List.concat_map
    (fun (pkg : P.t) ->
      List.map
        (fun (f : P.file) ->
          (pkg.P.name ^ "/" ^ f.P.path, Digest.string f.P.bytes))
        pkg.P.files)
    d.P.packages

(* --- evolution ---------------------------------------------------- *)

let test_release0_is_generate () =
  let evolved = Lazy.force r0 in
  let generated = G.generate ~config () in
  Alcotest.(check (list (pair string string)))
    "release 0 emits byte-for-byte what generate emits"
    (file_digests generated) (file_digests evolved)

let test_deterministic () =
  let a = Lazy.force r3 in
  let b = G.evolve ~config ~release:3 () in
  Alcotest.(check (list (pair string string)))
    "same seed + release -> identical bytes"
    (file_digests a) (file_digests b)

let test_release_recorded () =
  Alcotest.(check int) "release 0" 0 (Lazy.force r0).P.release;
  Alcotest.(check int) "release 3" 3 (Lazy.force r3).P.release

let test_churn_is_bounded () =
  (* Rng-split isolation: packages evolution never touched must be
     byte-identical across releases, and churn must touch something. *)
  let d0 = Lazy.force r0 and d3 = Lazy.force r3 in
  let tbl = Hashtbl.create 256 in
  List.iter (fun (k, v) -> Hashtbl.replace tbl k v) (file_digests d0);
  let same = ref 0 and diff = ref 0 and fresh = ref 0 in
  List.iter
    (fun (k, v) ->
      match Hashtbl.find_opt tbl k with
      | Some v0 -> if v = v0 then incr same else incr diff
      | None -> incr fresh)
    (file_digests d3);
  if !same = 0 then Alcotest.fail "no package survived three releases";
  if !diff + !fresh = 0 then
    Alcotest.fail "three releases of churn changed nothing";
  let total = !same + !diff + !fresh in
  if !diff + !fresh > total / 2 then
    Alcotest.failf
      "churn touched %d/%d files — the default rate should leave most \
       of the world byte-identical"
      (!diff + !fresh) total

(* --- incremental pipeline ----------------------------------------- *)

let test_incremental_bit_identical () =
  let cache = Pipeline.new_cache () in
  let pc = { Pipeline.default with shared_cache = Some cache } in
  let h0 = Stage.counter "incremental:hits" in
  let m0 = Stage.counter "incremental:misses" in
  ignore (Pipeline.run ~config:pc (Lazy.force r0));
  let warm = Pipeline.cache_size cache in
  if warm = 0 then Alcotest.fail "release 0 populated nothing";
  let m_after_r0 = Stage.counter "incremental:misses" in
  Alcotest.(check int) "cold run: every payload is a miss" warm
    (m_after_r0 - m0);
  let inc = Pipeline.run ~config:pc (Lazy.force r3) in
  let scratch = Pipeline.run (Lazy.force r3) in
  Alcotest.(check string)
    "incremental run is bit-identical to from-scratch"
    (Snapshot.to_string (Snapshot.of_analyzed scratch))
    (Snapshot.to_string (Snapshot.of_analyzed inc));
  let hits = Stage.counter "incremental:hits" - h0 in
  let misses = Stage.counter "incremental:misses" - m_after_r0 in
  if hits = 0 then Alcotest.fail "warm run reused nothing";
  if misses >= hits then
    Alcotest.failf
      "warm run missed more than it hit (%d misses vs %d hits) — the \
       cache is not being reused across releases"
      misses hits

(* --- delta snapshots ---------------------------------------------- *)

let snap_of release = Snapshot.of_analyzed (Pipeline.run (Lazy.force release))

let base = lazy (snap_of r0)
let cur = lazy (snap_of r3)

let ok_exn what = function
  | Ok v -> v
  | Error e -> Alcotest.failf "%s: %a" what Snapshot.pp_error e

let test_delta_roundtrip () =
  let base = Lazy.force base and cur = Lazy.force cur in
  let delta = Snapshot.to_delta_string ~base cur in
  let applied = ok_exn "apply" (Snapshot.apply_delta ~base delta) in
  Alcotest.(check string) "applying the delta reproduces the snapshot"
    (Snapshot.to_string cur)
    (Snapshot.to_string applied)

let test_delta_is_small () =
  let base = Lazy.force base and cur = Lazy.force cur in
  let delta = String.length (Snapshot.to_delta_string ~base cur) in
  let full = String.length (Snapshot.to_string cur) in
  if delta * 10 > full then
    Alcotest.failf
      "delta is %d bytes against a %d-byte full snapshot — changed-rows \
       encoding should be an order of magnitude smaller"
      delta full

let check_delta_error name expected ~base bytes =
  match Snapshot.apply_delta ~base bytes with
  | Ok _ -> Alcotest.failf "%s: apply unexpectedly succeeded" name
  | Error e ->
    Alcotest.(check string) name expected (Snapshot.kind_name e)

let test_delta_damage_goldens () =
  let base = Lazy.force base and cur = Lazy.force cur in
  let delta = Snapshot.to_delta_string ~base cur in
  let n = String.length delta in
  (* a delta fed to the plain decoder announces its base *)
  (match Snapshot.of_string delta with
   | Ok _ -> Alcotest.fail "a delta decoded standalone"
   | Error e ->
     Alcotest.(check string) "standalone decode" "needs-base"
       (Snapshot.kind_name e));
  (* a full snapshot is not a delta *)
  check_delta_error "full snapshot as delta" "unsupported-version" ~base
    (Snapshot.to_string cur);
  (* applying against the wrong base world *)
  check_delta_error "wrong base" "base-mismatch" ~base:cur delta;
  (* damage: truncations and a payload flip (caught by the digest) *)
  check_delta_error "truncated header" "truncated" ~base
    (String.sub delta 0 20);
  check_delta_error "truncated payload" "truncated" ~base
    (String.sub delta 0 (n - 1));
  let flipped = Bytes.of_string delta in
  let i = 36 + ((n - 36) / 2) in
  Bytes.set flipped i
    (Char.chr (Char.code (Bytes.get flipped i) lxor 0x40));
  check_delta_error "flipped payload byte" "digest-mismatch" ~base
    (Bytes.to_string flipped);
  check_delta_error "trailing garbage" "corrupt" ~base (delta ^ "x")

let test_delta_never_raises () =
  (* every truncation point and a flip at every offset must come back
     as a structured error, never an exception *)
  let base = Lazy.force base in
  let delta = Snapshot.to_delta_string ~base (Lazy.force cur) in
  let n = String.length delta in
  for keep = 0 to n - 1 do
    match Snapshot.apply_delta ~base (String.sub delta 0 keep) with
    | Ok _ -> Alcotest.failf "truncation to %d applied" keep
    | Error _ -> ()
  done;
  for i = 0 to n - 1 do
    let b = Bytes.of_string delta in
    Bytes.set b i (Char.chr (Char.code (Bytes.get b i) lxor 0xff));
    ignore (Snapshot.apply_delta ~base (Bytes.to_string b))
  done

let test_delta_file_roundtrip () =
  let base = Lazy.force base and cur = Lazy.force cur in
  let path = Filename.temp_file "lapis-delta" ".bin" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      (match Snapshot.save_delta path ~base cur with
       | Ok () -> ()
       | Error e -> Alcotest.failf "save_delta: %a" Snapshot.pp_error e);
      let loaded = ok_exn "load_delta" (Snapshot.load_delta path ~base) in
      Alcotest.(check string) "file round-trip"
        (Snapshot.to_string cur)
        (Snapshot.to_string loaded))

(* The encoders' output is pinned byte for byte: the MD5s of a full
   snapshot and of a delta for one fixed world. Any change to the wire
   format, the dictionary order or the delta's row identity moves
   them. *)
let test_byte_goldens () =
  let base = Lazy.force base and r2 = snap_of r2 in
  let md5 s = Digest.to_hex (Digest.string s) in
  Alcotest.(check string) "to_string, release 2"
    "75ae964322d267ce334a12d61b23fad4" (md5 (Snapshot.to_string r2));
  Alcotest.(check string) "to_delta_string, release 0 -> 2"
    "d0f0b85bd1897e4e55cd161df69f9e4b"
    (md5 (Snapshot.to_delta_string ~base r2))

(* A world of the given rows, with the base's metadata and rejects. *)
let world_of packages bins =
  let base = Lazy.force base in
  {
    Snapshot.meta =
      { base.Snapshot.meta with Snapshot.n_packages = List.length packages };
    store =
      Store.build ~packages ~bins
        ~total_installs:base.Snapshot.store.Store.total_installs;
    rejects = base.Snapshot.rejects;
  }

let apply_exn ~base delta =
  ok_exn "apply_delta" (Snapshot.apply_delta ~base delta)

(* A delta's rows are KEEP instructions exactly when [apply_delta]
   hands back the base's own row values. *)
let kept_rows (base : Store.t) (applied : Store.t) =
  let kept base_rows = Array.map (fun r -> Array.exists (( == ) r) base_rows) in
  ( kept base.Store.packages applied.Store.packages,
    kept (Array.of_list base.Store.bins) (Array.of_list applied.Store.bins) )

(* [l] in a random order. *)
let shuffled rng l =
  let a = Array.of_list l in
  for i = Array.length a - 1 downto 1 do
    let j = Random.State.int rng (i + 1) in
    let x = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- x
  done;
  Array.to_list a

(* Rows of the current world: a base index (taken modulo the row
   count) and a draw deciding whether and how the row changes. *)
let gen_picks = QCheck2.Gen.(list_size (int_range 30 150) (pair nat (float_bound_exclusive 1.0)))

let qcheck_row_identity =
  QCheck2.Test.make ~count:20
    ~name:"delta row identity: order, repeats, tree shape, changes"
    QCheck2.Gen.(triple gen_picks gen_picks int)
    (fun (pkg_picks, bin_picks, seed) ->
      let base = Lazy.force base in
      let base_pkgs = base.Snapshot.store.Store.packages in
      let base_bins = Array.of_list base.Snapshot.store.Store.bins in
      let rng = Random.State.make [| seed |] in
      (* each set grown again by inserting its elements in a shuffled
         order: equal as a set, usually a differently shaped tree *)
      let reshaped = ref 0 in
      let re s =
        let s' =
          List.fold_left (Fun.flip Api.Set.add) Api.Set.empty
            (shuffled rng (Api.Set.elements s))
        in
        if compare s s' <> 0 then incr reshaped;
        s'
      in
      let re_fp (fp : Footprint.t) =
        let module S = Footprint.String_set in
        { fp with
          Footprint.apis = re fp.Footprint.apis;
          imports =
            List.fold_left (Fun.flip S.add) S.empty
              (shuffled rng (S.elements fp.Footprint.imports)) }
      in
      (* a pick is changed when its draw is below 0.2: a scalar field
         below 0.1, one element of an API set above (its size kept) *)
      let changed u = u < 0.2 in
      let swap s =
        let s = if Api.Set.is_empty s then s else Api.Set.remove (Api.Set.min_elt s) s in
        Api.Set.add (Api.Syscall 100_000) s
      in
      let pkg (i, u) =
        let p = base_pkgs.(i mod Array.length base_pkgs) in
        if u < 0.1 then { p with Store.pr_installs = p.Store.pr_installs + 1 }
        else if changed u then { p with Store.pr_init = swap p.Store.pr_init }
        else p
      in
      let bin (i, u) =
        let r = base_bins.(i mod Array.length base_bins) in
        if u < 0.1 then { r with Store.br_path = r.Store.br_path ^ "~" }
        else if changed u then { r with Store.br_serving = swap r.Store.br_serving }
        else r
      in
      let pkgs = List.map pkg pkg_picks and bins = List.map bin bin_picks in
      let untouched = world_of pkgs bins in
      let rebuilt =
        world_of
          (List.map
             (fun (p : Store.pkg_row) ->
               { p with
                 Store.pr_apis = re p.Store.pr_apis;
                 pr_apis_elf = re p.Store.pr_apis_elf;
                 pr_init = re p.Store.pr_init;
                 pr_serving = re p.Store.pr_serving })
             pkgs)
          (List.map
             (fun (r : Store.bin_row) ->
               { r with
                 Store.br_direct = re_fp r.Store.br_direct;
                 br_resolved = re_fp r.Store.br_resolved;
                 br_init = re r.Store.br_init;
                 br_serving = re r.Store.br_serving })
             bins)
      in
      if !reshaped = 0 then QCheck2.Test.fail_report "no set changed its tree shape";
      let delta = Snapshot.to_delta_string ~base rebuilt in
      if delta <> Snapshot.to_delta_string ~base untouched then
        QCheck2.Test.fail_report "tree shape changed the delta";
      let applied = apply_exn ~base delta in
      if Snapshot.to_string applied <> Snapshot.to_string rebuilt then
        QCheck2.Test.fail_report "the delta does not rebuild the world";
      let kept_pkgs, kept_bins = kept_rows base.Snapshot.store applied.Snapshot.store in
      let agree picks kept =
        List.for_all2 (fun (_, u) k -> k = not (changed u)) picks (Array.to_list kept)
      in
      if not (agree pkg_picks kept_pkgs) then
        QCheck2.Test.fail_report "a package row is KEEP although changed, or NEW although not";
      if not (agree bin_picks kept_bins) then
        QCheck2.Test.fail_report "a binary row is KEEP although changed, or NEW although not";
      true)

(* Floats are compared by bit pattern, as the wire writes them: 0.0
   and -0.0 are equal under [=] yet different rows. *)
let test_signed_zero_is_a_change () =
  let base = Lazy.force base in
  let pkgs = Array.to_list base.Snapshot.store.Store.packages in
  let bins = base.Snapshot.store.Store.bins in
  let with_prob0 f =
    List.mapi (fun i (p : Store.pkg_row) -> if i = 0 then { p with Store.pr_prob = f } else p) pkgs
  in
  List.iter
    (fun (was, now) ->
      let b = world_of (with_prob0 was) bins and c = world_of (with_prob0 now) bins in
      let delta = Snapshot.to_delta_string ~base:b c in
      let applied = apply_exn ~base:b delta in
      Alcotest.(check string) "the delta rebuilds the world"
        (Snapshot.to_string c) (Snapshot.to_string applied);
      let kept, _ = kept_rows b.Snapshot.store applied.Snapshot.store in
      Alcotest.(check (list bool)) "only the flipped row ships"
        (List.mapi (fun i _ -> i <> 0) pkgs)
        (Array.to_list kept))
    [ (0.0, -0.0); (-0.0, 0.0) ]

(* Of equal base rows, KEEP names the first: a world repeating its
   first package as a fresh, structurally equal record keeps index 0
   at both positions. *)
let test_first_equal_row_wins () =
  let base = Lazy.force base in
  let pkgs = Array.to_list base.Snapshot.store.Store.packages in
  let p0 = List.hd pkgs in
  let copy = { p0 with Store.pr_name = p0.Store.pr_name } in
  let w = world_of (pkgs @ [ copy ]) base.Snapshot.store.Store.bins in
  let applied = apply_exn ~base:w (Snapshot.to_delta_string ~base:w w) in
  let rows = applied.Snapshot.store.Store.packages in
  if not (rows.(0) == p0 && rows.(Array.length rows - 1) == p0) then
    Alcotest.fail "a repeated row was not kept from the first index"

(* --- source identity ---------------------------------------------- *)

let test_source_key_release () =
  let k0 = Snapshot.source_key ~seed:1 ~n_packages:2 ~total_installs:3 () in
  let k0' =
    Snapshot.source_key ~release:0 ~seed:1 ~n_packages:2 ~total_installs:3 ()
  in
  let k1 =
    Snapshot.source_key ~release:1 ~seed:1 ~n_packages:2 ~total_installs:3 ()
  in
  let k2 =
    Snapshot.source_key ~release:2 ~seed:1 ~n_packages:2 ~total_installs:3 ()
  in
  Alcotest.(check string) "release 0 is the default spelling" k0 k0';
  if k1 = k0 then
    Alcotest.fail "release 1 collides with its release-0 ancestor";
  if k2 = k1 then Alcotest.fail "two releases share a source key"

let test_matches_release () =
  let cur = Lazy.force cur in
  Alcotest.(check bool) "matches with its own release" true
    (Snapshot.matches ~release:3 cur config);
  Alcotest.(check bool) "an evolved world is not its ancestor" false
    (Snapshot.matches cur config);
  Alcotest.(check bool) "base matches the release-0 default" true
    (Snapshot.matches (Lazy.force base) config)

let () =
  Alcotest.run "evolve"
    [ ( "evolution",
        [ Alcotest.test_case "release 0 == generate" `Quick
            test_release0_is_generate;
          Alcotest.test_case "deterministic" `Quick test_deterministic;
          Alcotest.test_case "release recorded" `Quick test_release_recorded;
          Alcotest.test_case "churn bounded" `Quick test_churn_is_bounded ] );
      ( "incremental",
        [ Alcotest.test_case "bit-identical + counters" `Quick
            test_incremental_bit_identical ] );
      ( "delta",
        [ Alcotest.test_case "round-trip" `Quick test_delta_roundtrip;
          Alcotest.test_case "small" `Quick test_delta_is_small;
          Alcotest.test_case "damage goldens" `Quick
            test_delta_damage_goldens;
          Alcotest.test_case "never raises" `Quick test_delta_never_raises;
          Alcotest.test_case "file round-trip" `Quick
            test_delta_file_roundtrip;
          Alcotest.test_case "byte goldens" `Quick test_byte_goldens;
          QCheck_alcotest.to_alcotest qcheck_row_identity;
          Alcotest.test_case "signed zero is a change" `Quick
            test_signed_zero_is_a_change;
          Alcotest.test_case "first equal row wins" `Quick
            test_first_equal_row_wins ] );
      ( "identity",
        [ Alcotest.test_case "source_key release" `Quick
            test_source_key_release;
          Alcotest.test_case "matches release" `Quick test_matches_release ]
      )
    ]
