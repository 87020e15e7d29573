(* Everything the benchmark starts or writes is owned here: child
   processes are stopped, and temporary files unlinked, on normal exit,
   on failure and on SIGINT/SIGTERM. *)

let children : (int * string) list ref = ref []
let files : string list ref = ref []

let track_file path = files := path :: !files

let remove_file path =
  (try Sys.remove path with Sys_error _ -> ());
  files := List.filter (( <> ) path) !files

let alive pid =
  match Unix.waitpid [ Unix.WNOHANG ] pid with
  | 0, _ -> true
  | _ -> false
  | exception Unix.Unix_error _ -> false

(* Start [exe args] with stdin and stdout on /dev/null and stderr into
   [log]: a file, not a pipe, so a chatty child can never block on a
   pipe nobody drains. *)
let spawn ~log exe args =
  let null = Unix.openfile "/dev/null" [ Unix.O_RDWR ] 0 in
  let err = Unix.openfile log [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_TRUNC ] 0o644 in
  track_file log;
  let pid =
    Fun.protect
      ~finally:(fun () ->
        Unix.close null;
        Unix.close err)
      (fun () -> Unix.create_process exe (Array.of_list (exe :: args)) null null err)
  in
  children := (pid, log) :: !children;
  pid

let find_sub s sub =
  let n = String.length s and m = String.length sub in
  let rec go i =
    if i + m > n then None else if String.sub s i m = sub then Some i else go (i + 1)
  in
  go 0

let read_file path =
  try In_channel.with_open_bin path In_channel.input_all with Sys_error _ -> ""

(* The port a `lapis serve --tcp 0` or `lapis fleet --tcp 0` child
   announces on stderr ("... on 127.0.0.1:PORT ..."), once it accepts. *)
let announced_port log =
  let text = read_file log in
  let addr = "127.0.0.1:" in
  let rec find_line = function
    | [] -> None
    | l :: rest -> (
      match find_sub l addr with
      | Some i when find_sub l "serving" <> None ->
        let tail = String.sub l (i + 10) (String.length l - i - 10) in
        let digits =
          String.to_seq tail
          |> Seq.take_while (fun c -> c >= '0' && c <= '9')
          |> String.of_seq
        in
        int_of_string_opt digits
      | _ -> find_line rest)
  in
  find_line (String.split_on_char '\n' text)

let wait_port ~timeout_s pid log =
  let deadline = Unix.gettimeofday () +. timeout_s in
  let rec go () =
    match announced_port log with
    | Some p -> Ok p
    | None ->
      if not (alive pid) then
        Error (Printf.sprintf "child %d exited before serving: %s" pid (read_file log))
      else if Unix.gettimeofday () > deadline then
        Error (Printf.sprintf "child %d did not serve within %.0fs" pid timeout_s)
      else begin
        Unix.sleepf 0.002;
        go ()
      end
  in
  go ()

(* Peak resident set (VmHWM) of a live process, in kB. *)
let vm_hwm_kb pid =
  let path = if pid = 0 then "/proc/self/status" else Printf.sprintf "/proc/%d/status" pid in
  List.fold_left
    (fun acc line ->
      match String.split_on_char ':' line with
      | [ "VmHWM"; v ] -> (
        match String.split_on_char ' ' (String.trim v) with
        | kb :: _ -> Option.value ~default:acc (int_of_string_opt kb)
        | [] -> acc)
      | _ -> acc)
    0
    (String.split_on_char '\n' (read_file path))

(* Restart this process's VmHWM from its current resident set, so a
   peak can be read per unit of work. *)
let reset_hwm () =
  try Out_channel.with_open_text "/proc/self/clear_refs" (fun oc -> output_string oc "5")
  with Sys_error _ -> ()

(* SIGINT (the servers' graceful stop), then SIGKILL after a grace
   period; always reaped. *)
let stop pid =
  (try Unix.kill pid Sys.sigint with Unix.Unix_error _ -> ());
  let deadline = Unix.gettimeofday () +. 5.0 in
  let rec reap () =
    match Unix.waitpid [ Unix.WNOHANG ] pid with
    | 0, _ when Unix.gettimeofday () < deadline ->
      Unix.sleepf 0.005;
      reap ()
    | 0, _ ->
      (try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ());
      (try ignore (Unix.waitpid [] pid) with Unix.Unix_error _ -> ())
    | _ -> ()
    | exception Unix.Unix_error _ -> ()
  in
  reap ();
  children := List.filter (fun (p, _) -> p <> pid) !children

let kill_now pid = try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ()

let cleanup () =
  List.iter (fun (pid, _) -> stop pid) !children;
  List.iter remove_file !files

let () =
  at_exit cleanup;
  let on_signal code =
    Sys.Signal_handle
      (fun _ ->
        cleanup ();
        Unix._exit code)
  in
  Sys.set_signal Sys.sigint (on_signal 130);
  Sys.set_signal Sys.sigterm (on_signal 143)
