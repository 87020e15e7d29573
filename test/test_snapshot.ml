(* Tests for the snapshot wire format: round-trips through bytes and
   files, qcheck round-trips over randomized stores, and golden
   corruption cases — every malformed input must come back as a
   structured [error], never an exception. *)

module Api = Core.Apidb.Api
module Store = Core.Db.Store
module Snapshot = Core.Db.Snapshot
module Pipeline = Core.Db.Pipeline
module Generator = Core.Distro.Generator

let small_config = { Generator.default_config with n_packages = 60 }

let analyzed =
  lazy (Pipeline.run (Generator.generate ~config:small_config ()))

let snapshot () = Snapshot.of_analyzed (Lazy.force analyzed)

let ok_exn what = function
  | Ok v -> v
  | Error e -> Alcotest.failf "%s: %a" what Snapshot.pp_error e

(* --- round-trips ------------------------------------------------------- *)

let test_roundtrip_bytes () =
  let snap = snapshot () in
  let bytes = Snapshot.to_string snap in
  let snap' = ok_exn "decode" (Snapshot.of_string bytes) in
  Alcotest.(check int) "package count"
    (Array.length snap.Snapshot.store.Store.packages)
    (Array.length snap'.Snapshot.store.Store.packages);
  Alcotest.(check int) "binary count"
    (List.length snap.Snapshot.store.Store.bins)
    (List.length snap'.Snapshot.store.Store.bins);
  Alcotest.(check int) "total installs"
    snap.Snapshot.store.Store.total_installs
    snap'.Snapshot.store.Store.total_installs;
  Alcotest.(check (list (pair string int))) "rejects"
    snap.Snapshot.rejects snap'.Snapshot.rejects;
  Alcotest.(check string) "meta source key"
    snap.Snapshot.meta.Snapshot.source_key
    snap'.Snapshot.meta.Snapshot.source_key;
  (* strongest equality we can ask for: re-encoding the decoded value
     reproduces the original byte stream exactly *)
  Alcotest.(check string) "re-encode is byte-identical" bytes
    (Snapshot.to_string snap')

let test_roundtrip_metrics () =
  let snap = snapshot () in
  let snap' =
    ok_exn "decode" (Snapshot.of_string (Snapshot.to_string snap))
  in
  let module I = Core.Metrics.Importance in
  List.iter
    (fun ((e : Core.Apidb.Syscall_table.entry), v) ->
      let v' =
        I.importance snap'.Snapshot.store
          (Api.Syscall e.Core.Apidb.Syscall_table.nr)
      in
      if v <> v' then
        Alcotest.failf "importance of %s changed across the round-trip"
          e.Core.Apidb.Syscall_table.name)
    (I.syscall_importances snap.Snapshot.store);
  Alcotest.(check (list int)) "ranking preserved"
    (I.rank_syscalls snap.Snapshot.store)
    (I.rank_syscalls snap'.Snapshot.store)

let test_roundtrip_file () =
  let snap = snapshot () in
  let path = Filename.temp_file "lapis-snap" ".bin" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      (match Snapshot.save path snap with
       | Ok () -> ()
       | Error e -> Alcotest.failf "save: %a" Snapshot.pp_error e);
      let snap' = ok_exn "load" (Snapshot.load path) in
      Alcotest.(check string) "file round-trip is byte-identical"
        (Snapshot.to_string snap)
        (Snapshot.to_string snap'))

(* Saving over a path publishes a new file instead of rewriting the
   old one in place: a reader that opened the old snapshot reads the
   old bytes to EOF, no temp file is left beside the path, and the
   file has the mode [open_out] gives. *)
let test_overwrite_while_open () =
  let snap = snapshot () in
  let other = { snap with Snapshot.rejects = ("overwritten", 1) :: snap.Snapshot.rejects } in
  let dir = Filename.temp_file "lapis-snapdir" "" in
  Sys.remove dir;
  Sys.mkdir dir 0o700;
  let path = Filename.concat dir "world.snap" in
  let save t =
    match Snapshot.save path t with
    | Ok () -> ()
    | Error e -> Alcotest.failf "save: %a" Snapshot.pp_error e
  in
  Fun.protect
    ~finally:(fun () ->
      Array.iter (fun f -> Sys.remove (Filename.concat dir f)) (Sys.readdir dir);
      Sys.rmdir dir)
    (fun () ->
      save snap;
      let ic = open_in_bin path in
      let old_bytes =
        Fun.protect ~finally:(fun () -> close_in ic) (fun () ->
            save other;
            In_channel.input_all ic)
      in
      Alcotest.(check string) "open reader keeps the old bytes"
        (Snapshot.to_string snap) old_bytes;
      Alcotest.(check string) "the path holds the new snapshot"
        (Snapshot.to_string other)
        (Snapshot.to_string (ok_exn "load" (Snapshot.load path)));
      Alcotest.(check (list string)) "no temp file left" [ "world.snap" ]
        (Array.to_list (Sys.readdir dir));
      let plain = Filename.concat dir "plain" in
      close_out (open_out_bin plain);
      Alcotest.(check int) "mode of a plainly created file"
        (Unix.stat plain).Unix.st_perm (Unix.stat path).Unix.st_perm)

let test_matches () =
  let snap = snapshot () in
  Alcotest.(check bool) "same config matches" true
    (Snapshot.matches snap small_config);
  Alcotest.(check bool) "different seed does not" false
    (Snapshot.matches snap { small_config with Generator.seed = 7 });
  Alcotest.(check bool) "different size does not" false
    (Snapshot.matches snap { small_config with Generator.n_packages = 61 })

(* --- qcheck round-trip over randomized stores -------------------------- *)

let gen_api =
  QCheck2.Gen.(
    oneof
      [ map (fun nr -> Api.Syscall nr) (int_range 0 450);
        map (fun c -> Api.Vop (Api.Ioctl, c)) (int_range 0 99);
        map (fun c -> Api.Vop (Api.Fcntl, c)) (int_range 0 20);
        map (fun c -> Api.Vop (Api.Prctl, c)) (int_range 0 20);
        map (fun n -> Api.Pseudo_file ("/proc/" ^ string_of_int n))
          (int_range 0 30);
        map (fun n -> Api.Libc_sym ("f" ^ string_of_int n)) (int_range 0 50)
      ])

let gen_pkg i =
  QCheck2.Gen.(
    let* apis = list_size (int_range 0 12) gen_api in
    let* elf_apis = list_size (int_range 0 6) gen_api in
    (* phased sets drawn independently: the codec must intern and
       round-trip them even when they are not subsets of pr_apis *)
    let* init_apis = list_size (int_range 0 8) gen_api in
    let* serving_apis = list_size (int_range 0 8) gen_api in
    let* prob = float_range 0.0 1.0 in
    let* essential = bool in
    let* dep = int_range 0 30 in
    let apiset l = List.fold_left (Fun.flip Api.Set.add) Api.Set.empty l in
    return
      {
        Store.pr_name = "pkg" ^ string_of_int i;
        pr_installs = int_of_float (prob *. 1_000_000.);
        pr_prob = prob;
        (* point at a possibly-missing package: Store.build tolerates
           dangling dependency names and the codec must too *)
        pr_deps = [ "pkg" ^ string_of_int dep ];
        pr_essential = essential;
        pr_apis = apiset apis;
        pr_apis_elf = apiset elf_apis;
        pr_init = apiset init_apis;
        pr_serving = apiset serving_apis;
      })

let gen_store =
  QCheck2.Gen.(
    let* n = int_range 0 25 in
    let* pkgs =
      flatten_l (List.init n (fun i -> gen_pkg i))
    in
    let* total = int_range 1 10_000_000 in
    return (Store.build ~total_installs:total ~bins:[] ~packages:pkgs))

let qcheck_roundtrip =
  QCheck2.Test.make ~count:60 ~name:"snapshot round-trip (random stores)"
    gen_store (fun store ->
      let snap =
        {
          Snapshot.meta =
            {
              Snapshot.version = Snapshot.format_version;
              seed = 1;
              n_packages = Array.length store.Store.packages;
              total_installs = store.Store.total_installs;
              source_key = "qcheck";
              release = 0;
            };
          store;
          rejects = [ ("decode-error", 2); ("analysis-crash", 0) ];
        }
      in
      let bytes = Snapshot.to_string snap in
      match Snapshot.of_string bytes with
      | Error e ->
        QCheck2.Test.fail_reportf "decode failed: %a" Snapshot.pp_error e
      | Ok snap' -> Snapshot.to_string snap' = bytes)

(* --- corruption golden cases ------------------------------------------- *)

let check_error name expected bytes =
  match Snapshot.of_string bytes with
  | Ok _ -> Alcotest.failf "%s: decode unexpectedly succeeded" name
  | Error e ->
    Alcotest.(check string) name expected (Snapshot.kind_name e)

let test_corruption_cases () =
  let bytes = Snapshot.to_string (snapshot ()) in
  (* not a snapshot at all *)
  check_error "wrong magic" "not-snapshot" ("XXXXXXXX" ^ String.sub bytes 8 60);
  check_error "html error page" "not-snapshot" "<html>404 not found</html>";
  (* header truncations: a genuine prefix of a snapshot is truncated,
     not foreign *)
  check_error "empty input" "truncated" "";
  check_error "cut inside magic" "truncated" (String.sub bytes 0 5);
  check_error "cut inside header" "truncated" (String.sub bytes 0 20);
  (* payload truncations at several depths *)
  let n = String.length bytes in
  List.iter
    (fun keep ->
      if keep < n then
        check_error
          (Printf.sprintf "truncated to %d bytes" keep)
          "truncated"
          (String.sub bytes 0 keep))
    [ 36; 37; 40; n / 2; n - 1 ];
  (* future format version, and the retired row formats 1-3 *)
  List.iter
    (fun v ->
      let future = Bytes.of_string bytes in
      Bytes.set_int32_le future 8 v;
      check_error
        (Printf.sprintf "version %ld" v)
        "unsupported-version" (Bytes.to_string future))
    [ 99l; 1l; 2l; 3l ];
  (* flipped payload byte is caught by the digest *)
  let flipped = Bytes.of_string bytes in
  let i = 36 + ((n - 36) / 2) in
  Bytes.set flipped i (Char.chr (Char.code (Bytes.get flipped i) lxor 0x40));
  check_error "flipped payload byte" "digest-mismatch"
    (Bytes.to_string flipped);
  (* trailing garbage after a valid payload *)
  check_error "trailing garbage" "corrupt" (bytes ^ "tail")

let test_corruption_never_raises () =
  (* sweep every truncation point and a byte flip at every offset of a
     small snapshot: all must return, none may raise *)
  let store =
    Store.build ~total_installs:1000 ~bins:[]
      ~packages:
        [ {
            Store.pr_name = "a";
            pr_installs = 500;
            pr_prob = 0.5;
            pr_deps = [];
            pr_essential = false;
            pr_apis = Api.Set.singleton (Api.Syscall 0);
            pr_apis_elf = Api.Set.empty;
            pr_init = Api.Set.singleton (Api.Syscall 0);
            pr_serving = Api.Set.empty;
          } ]
  in
  let snap =
    {
      Snapshot.meta =
        {
          Snapshot.version = Snapshot.format_version;
          seed = 0;
          n_packages = 1;
          total_installs = 1000;
          source_key = "sweep";
          release = 0;
        };
      store;
      rejects = [];
    }
  in
  let bytes = Snapshot.to_string snap in
  let n = String.length bytes in
  for keep = 0 to n - 1 do
    match Snapshot.of_string (String.sub bytes 0 keep) with
    | Ok _ -> Alcotest.failf "truncation to %d decoded" keep
    | Error _ -> ()
  done;
  for i = 0 to n - 1 do
    let b = Bytes.of_string bytes in
    Bytes.set b i (Char.chr (Char.code (Bytes.get b i) lxor 0xff));
    ignore (Snapshot.of_string (Bytes.to_string b))
  done

let test_load_missing_file () =
  match Snapshot.load "/nonexistent/lapis.snapshot" with
  | Ok _ -> Alcotest.fail "loading a missing file succeeded"
  | Error e -> Alcotest.(check string) "io error" "io" (Snapshot.kind_name e)

let () =
  Alcotest.run "snapshot"
    [ ( "roundtrip",
        [ Alcotest.test_case "bytes" `Quick test_roundtrip_bytes;
          Alcotest.test_case "metrics" `Quick test_roundtrip_metrics;
          Alcotest.test_case "file" `Quick test_roundtrip_file;
          Alcotest.test_case "overwrite while open" `Quick
            test_overwrite_while_open;
          Alcotest.test_case "matches" `Quick test_matches;
          QCheck_alcotest.to_alcotest qcheck_roundtrip ] );
      ( "corruption",
        [ Alcotest.test_case "golden cases" `Quick test_corruption_cases;
          Alcotest.test_case "never raises" `Quick
            test_corruption_never_raises;
          Alcotest.test_case "missing file" `Quick test_load_missing_file ] )
    ]
