(** See the interface for the architecture; the concurrency invariants
    are:

    - a connection's mutable state ([next_seq], [outstanding],
      [pending], [next_write], flags) is only touched under its own
      mutex;
    - the job queue is a bounded Mutex/Condition queue — a full queue
      blocks the reader or sheds the message, per [on_full]; workers
      block when it drains; shutdown's [Quit]s bypass the bound, so a
      full queue can never strand a worker;
    - shutdown runs exactly once (an [Atomic] compare-and-set), either
      on the thread that called {!stop} or on the accept thread after
      a {!signal_stop}, and joins everything before declaring the
      front finished. *)

module Stage = Lapis_perf.Stage
module P = Protocol

type pool = Domains | Threads
type on_full = Block | Shed

type conn = {
  fd : Unix.file_descr;
  cmutex : Mutex.t;
  mutable next_seq : int;  (* next sequence number the reader assigns *)
  mutable next_write : int;  (* next sequence number to go on the wire *)
  pending : (int, string) Hashtbl.t;  (* finished out-of-order responses *)
  mutable outstanding : int;  (* enqueued and not yet written *)
  mutable reader_done : bool;
  mutable dead : bool;  (* write failed; drop the rest silently *)
  mutable closed : bool;
}

(* What a reader hands the pool: a JSON line, a binary frame payload,
   or an unrecoverable framing error (answered, then the connection's
   read side is done). The response bytes are fully formed by the
   worker — newline included for JSON, frame included for binary — so
   [deliver] is codec-blind. *)
type msg = Line of string | Frame of string | Broken of string

type job = Job of conn * int * msg | Quit

type t = {
  name : string;  (* prefixes the stage counters *)
  lsock : Unix.file_descr;
  bound_port : int;
  pool : pool;
  n_workers : int;
  on_full : on_full;
  queue : job Queue.t;
  qcap : int;
  qmutex : Mutex.t;
  not_empty : Condition.t;
  not_full : Condition.t;
  stop_flag : bool Atomic.t;
  shutdown_started : bool Atomic.t;
  accepted : int Atomic.t;
  conns_mutex : Mutex.t;
  mutable conns : conn list;
  mutable readers : Thread.t list;
  mutable workers : (unit -> unit) list;  (* one join per worker *)
  mutable accept_thread : Thread.t option;
  mutable on_stopped : unit -> unit;
  fin_mutex : Mutex.t;
  fin_cv : Condition.t;
  mutable finished : bool;
}

(* ------------------------------------------------------------------ *)
(* Bounded job queue                                                   *)
(* ------------------------------------------------------------------ *)

(* Under [qmutex]. *)
let push t job =
  Queue.push job t.queue;
  Condition.signal t.not_empty

(* A reader's enqueue; [false] means the queue is full and the message
   must be shed. *)
let admit t job =
  Mutex.protect t.qmutex (fun () ->
      match t.on_full with
      | Shed when Queue.length t.queue >= t.qcap -> false
      | Shed ->
        push t job;
        true
      | Block ->
        while Queue.length t.queue >= t.qcap do
          Condition.wait t.not_full t.qmutex
        done;
        push t job;
        true)

let dequeue t =
  Mutex.protect t.qmutex (fun () ->
      while Queue.is_empty t.queue do
        Condition.wait t.not_empty t.qmutex
      done;
      let job = Queue.pop t.queue in
      Condition.signal t.not_full;
      job)

let queue_depth t = Mutex.protect t.qmutex (fun () -> Queue.length t.queue)

(* ------------------------------------------------------------------ *)
(* The codec step                                                      *)
(* ------------------------------------------------------------------ *)

let parse_error msg = P.error_response ~kind:P.parse_error msg

(* A message's request, or the (id-echoing) error response it earns
   instead. *)
let decode = function
  | Line line ->
    (match Json.parse line with
     | Error msg -> Error (parse_error msg)
     | Ok j -> P.request_of_json j)
  | Frame payload -> Result.map_error parse_error (P.Bin.decode_request payload)
  | Broken msg -> Error (parse_error msg)

(* A response goes back in the codec its message came in. *)
let encode msg response =
  match msg with
  | Line _ -> Json.to_string (P.json_of_response response) ^ "\n"
  | Frame _ | Broken _ -> P.Bin.encode_response response

let answer handle msg =
  encode msg (match decode msg with Ok request -> handle request | Error e -> e)

(* The pool never sees a shed message, so its id is recovered here,
   best-effort; a broken stream still earns its parse error. *)
let shed_response t msg =
  let overloaded id =
    P.error_response ?id ~kind:P.overloaded (t.name ^ " queue full")
  in
  encode msg
    (match (msg, decode msg) with
     | Broken _, Error e -> e
     | _, Ok request -> overloaded request.P.rq_id
     | _, Error e -> overloaded e.P.rs_id)

(* ------------------------------------------------------------------ *)
(* Per-connection plumbing                                             *)
(* ------------------------------------------------------------------ *)

let write_all fd s =
  let len = String.length s in
  let off = ref 0 in
  while !off < len do
    off := !off + Unix.write_substring fd s !off (len - !off)
  done

(* Under [cmutex]. The fd closes exactly once, when the reader has hit
   EOF and every accepted request has been answered. *)
let maybe_close conn =
  if conn.reader_done && conn.outstanding = 0 && not conn.closed then begin
    conn.closed <- true;
    try Unix.close conn.fd with Unix.Unix_error _ -> ()
  end

(* Park the finished response, then flush the contiguous run starting
   at [next_write] — this is what keeps each client's responses in its
   own send order while the pool finishes jobs in any order. *)
let deliver conn seq bytes =
  Mutex.protect conn.cmutex (fun () ->
      Hashtbl.replace conn.pending seq bytes;
      let continue = ref true in
      while !continue do
        match Hashtbl.find_opt conn.pending conn.next_write with
        | None -> continue := false
        | Some response ->
          Hashtbl.remove conn.pending conn.next_write;
          conn.next_write <- conn.next_write + 1;
          conn.outstanding <- conn.outstanding - 1;
          if not (conn.dead || conn.closed) then (
            try write_all conn.fd response
            with Unix.Unix_error _ | Sys_error _ -> conn.dead <- true)
      done;
      maybe_close conn)

(* Every message takes a sequence number, shed or not, so a shed
   answer keeps its place in the connection's order. *)
let submit t conn msg =
  let seq =
    Mutex.protect conn.cmutex (fun () ->
        let seq = conn.next_seq in
        conn.next_seq <- seq + 1;
        conn.outstanding <- conn.outstanding + 1;
        seq)
  in
  if not (admit t (Job (conn, seq, msg))) then begin
    Stage.incr (t.name ^ ":shed");
    deliver conn seq (shed_response t msg)
  end

let json_reader t conn ic ~first =
  (match first with
   | Some line when String.trim line <> "" -> submit t conn (Line line)
   | _ -> ());
  let continue = ref true in
  while !continue do
    match In_channel.input_line ic with
    | None -> continue := false
    | Some line -> if String.trim line <> "" then submit t conn (Line line)
  done

let binary_reader t conn ic =
  (* The codec-detection byte was this connection's first frame's
     magic, so the first read starts after it. *)
  let rec go input =
    match input ic with
    | Ok payload ->
      submit t conn (Frame payload);
      go P.Bin.input_frame
    | Error `Eof -> ()
    | Error (`Bad msg) ->
      (* The stream cannot be resynchronized: answer once, stop
         reading. Responses already in flight still flush (the error
         takes a sequence number like any other message). *)
      submit t conn (Broken msg)
  in
  go P.Bin.input_frame_body

let reader t conn () =
  let ic = Unix.in_channel_of_descr conn.fd in
  (try
     match input_char ic with
     | exception End_of_file -> ()
     | c when c = P.Bin.magic -> binary_reader t conn ic
     | '\n' -> json_reader t conn ic ~first:None
     | c ->
       let rest = Option.value ~default:"" (In_channel.input_line ic) in
       json_reader t conn ic ~first:(Some (String.make 1 c ^ rest))
   with Sys_error _ | Unix.Unix_error _ -> ());
  Mutex.protect conn.cmutex (fun () ->
      conn.reader_done <- true;
      maybe_close conn)

(* ------------------------------------------------------------------ *)
(* Workers                                                             *)
(* ------------------------------------------------------------------ *)

let worker t handle () =
  let rec go () =
    match dequeue t with
    | Quit -> ()
    | Job (conn, seq, msg) ->
      Stage.incr (t.name ^ ":requests");
      (* The handlers are total; the catch-all is the never-crash
         contract's last line of defense for the whole pool. *)
      let response =
        try answer handle msg
        with e ->
          encode msg
            (P.error_response ~kind:P.internal_error (Printexc.to_string e))
      in
      deliver conn seq response;
      go ()
  in
  go ()

let spawn pool f =
  match pool with
  | Domains ->
    let d = Domain.spawn f in
    fun () -> Domain.join d
  | Threads ->
    let th = Thread.create f () in
    fun () -> Thread.join th

(* ------------------------------------------------------------------ *)
(* Shutdown                                                            *)
(* ------------------------------------------------------------------ *)

(* Runs at most once; the accept thread is already gone (we are either
   past [Thread.join] in [stop] or on the accept thread itself after
   its loop exited), so [t.conns] cannot grow any more. *)
let drain t =
  let conns, readers =
    Mutex.protect t.conns_mutex (fun () -> (t.conns, t.readers))
  in
  (* Half-close: readers consume what clients already sent, then see
     EOF. Nothing accepted is dropped. *)
  List.iter
    (fun c ->
      Mutex.protect c.cmutex (fun () ->
          if not c.closed then (
            try Unix.shutdown c.fd Unix.SHUTDOWN_RECEIVE
            with Unix.Unix_error _ -> ())))
    conns;
  List.iter Thread.join readers;
  (* Every job is in the queue now; a Quit per worker lets the pool
     finish the backlog first (the queue is FIFO). *)
  Mutex.protect t.qmutex (fun () -> List.iter (fun _ -> push t Quit) t.workers);
  List.iter (fun join -> join ()) t.workers;
  List.iter
    (fun c ->
      Mutex.protect c.cmutex (fun () ->
          if not c.closed then begin
            c.closed <- true;
            try Unix.close c.fd with Unix.Unix_error _ -> ()
          end))
    conns;
  t.on_stopped ();
  Mutex.protect t.fin_mutex (fun () ->
      t.finished <- true;
      Condition.broadcast t.fin_cv)

let track t fd =
  (* Request/response frames are small; without TCP_NODELAY, Nagle
     holds a response frame back waiting for the client's delayed ACK
     — tens of ms of idle on every exchange of a closed-loop client. *)
  (try Unix.setsockopt fd Unix.TCP_NODELAY true
   with Unix.Unix_error _ -> ());
  Atomic.incr t.accepted;
  Stage.incr (t.name ^ ":connections");
  let conn =
    {
      fd;
      cmutex = Mutex.create ();
      next_seq = 0;
      next_write = 0;
      pending = Hashtbl.create 8;
      outstanding = 0;
      reader_done = false;
      dead = false;
      closed = false;
    }
  in
  Mutex.protect t.conns_mutex (fun () ->
      t.conns <- conn :: t.conns;
      t.readers <- Thread.create (reader t conn) () :: t.readers)

let acceptor t =
  while not (Atomic.get t.stop_flag) do
    match Unix.select [ t.lsock ] [] [] 0.1 with
    | [], _, _ -> ()
    | _ -> (
      match Unix.accept t.lsock with
      | exception Unix.Unix_error _ -> ()
      | fd, _addr -> track t fd)
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> ()
  done;
  (* The backlog may hold handshaken connections whose requests are
     already queued — their clients' writes "made it in", and closing
     the listening socket now would RST them unanswered. Accept
     whatever is pending so the drain below serves it. *)
  let rec drain_backlog () =
    match Unix.select [ t.lsock ] [] [] 0.0 with
    | _ :: _, _, _ -> (
      match Unix.accept t.lsock with
      | exception Unix.Unix_error _ -> ()
      | fd, _addr ->
        track t fd;
        drain_backlog ())
    | _ -> ()
  in
  (try drain_backlog () with Unix.Unix_error _ -> ());
  (try Unix.close t.lsock with Unix.Unix_error _ -> ());
  (* A signal_stop with nobody in [stop] still needs the drain to run
     somewhere; first claimant does it. *)
  if Atomic.compare_and_set t.shutdown_started false true then drain t

(* ------------------------------------------------------------------ *)
(* Lifecycle                                                           *)
(* ------------------------------------------------------------------ *)

let port t = t.bound_port
let connections_served t = Atomic.get t.accepted
let stopping t = Atomic.get t.stop_flag

let gauges t =
  [
    ("queue_depth", float_of_int (queue_depth t));
    ("queue_capacity", float_of_int t.qcap);
    ("workers", float_of_int t.n_workers);
    ("connections", float_of_int (connections_served t));
  ]

let wait t =
  Mutex.protect t.fin_mutex (fun () ->
      while not t.finished do
        Condition.wait t.fin_cv t.fin_mutex
      done)

let signal_stop t = Atomic.set t.stop_flag true

let stop t =
  Atomic.set t.stop_flag true;
  (* Whoever wins the compare-and-set (us or the accept thread after a
     signal_stop) runs the drain; the other just waits. In the winning
     branch the accept thread lost, so joining it here is safe and
     guarantees the connection list is final before [drain] snapshots
     it. *)
  if Atomic.compare_and_set t.shutdown_started false true then begin
    Option.iter Thread.join t.accept_thread;
    drain t
  end;
  wait t

let create ~name ~pool ~workers ~queue_bound ~on_full ~host ~port ~backlog =
  (* A worker writing to a gone client must get EPIPE, not a fatal
     signal. *)
  (try Sys.set_signal Sys.sigpipe Sys.Signal_ignore
   with Invalid_argument _ -> ());
  let addr =
    try Unix.inet_addr_of_string host
    with Failure _ -> Unix.inet_addr_loopback
  in
  match
    let lsock = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
    (try
       Unix.setsockopt lsock Unix.SO_REUSEADDR true;
       Unix.bind lsock (Unix.ADDR_INET (addr, port));
       Unix.listen lsock backlog
     with e ->
       (try Unix.close lsock with Unix.Unix_error _ -> ());
       raise e);
    lsock
  with
  | exception Unix.Unix_error (e, _, _) ->
    Error
      (Printf.sprintf "cannot listen on %s:%d: %s" host port
         (Unix.error_message e))
  | lsock ->
    let bound_port =
      match Unix.getsockname lsock with
      | Unix.ADDR_INET (_, p) -> p
      | _ -> port
    in
    Ok
      {
        name;
        lsock;
        bound_port;
        pool;
        n_workers = workers;
        on_full;
        queue = Queue.create ();
        qcap = queue_bound;
        qmutex = Mutex.create ();
        not_empty = Condition.create ();
        not_full = Condition.create ();
        stop_flag = Atomic.make false;
        shutdown_started = Atomic.make false;
        accepted = Atomic.make 0;
        conns_mutex = Mutex.create ();
        conns = [];
        readers = [];
        workers = [];
        accept_thread = None;
        on_stopped = ignore;
        fin_mutex = Mutex.create ();
        fin_cv = Condition.create ();
        finished = false;
      }

let run ?(on_stopped = ignore) t handle =
  t.on_stopped <- on_stopped;
  t.workers <- List.init t.n_workers (fun _ -> spawn t.pool (worker t handle));
  t.accept_thread <- Some (Thread.create acceptor t)
