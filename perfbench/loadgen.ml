(* Open-loop load generator: one connection, one sender domain and one
   reader (the calling domain), so it never needs more than the two
   cores the benchmark host has.

   Request i is due at [t0 + i * 1e9 / rate] ns, an integer schedule.
   The sender sleeps until shortly before each due time and spins the
   rest, so it does not oversleep; a request is timed from its due
   time, not from its actual send, so a stall in the system is charged
   for every request it delayed. How late the sender ran is reported
   separately: it measures the generator, not the system.

   [drain] is the closed-loop client: a fixed window of requests
   outstanding on one connection, for timing a fixed amount of work. *)

open Measure

type result = {
  due : int array;  (** scheduled send, ns *)
  sent : int array;  (** actual send, ns; 0 if never sent *)
  recv : int array;  (** reply read, ns; 0 if none arrived *)
  lines : string array;  (** reply line, "" if none arrived *)
}

(* Spin for at most this long before a due time; sleep before that. *)
let spin_ns = 60_000

let rec wait_until due =
  let d = due - now_ns () in
  if d > spin_ns then begin
    Unix.sleepf (float_of_int (d - spin_ns) *. 1e-9);
    wait_until due
  end
  else if d > 0 then wait_until due

let connect port =
  let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  Unix.setsockopt fd Unix.TCP_NODELAY true;
  (* a system that stops reading must not block the sender forever *)
  Unix.setsockopt_float fd Unix.SO_SNDTIMEO 1.0;
  Unix.connect fd (Unix.ADDR_INET (Unix.inet_addr_loopback, port));
  fd

let write_all fd s =
  let b = Bytes.unsafe_of_string s in
  let rec go off =
    if off < Bytes.length b then go (off + Unix.write fd b off (Bytes.length b - off))
  in
  go 0

(* Read what [fd] has and pass each complete line to [on_line];
   [false] at the end of the stream or on an error. *)
let read_lines fd buf partial on_line =
  match Unix.read fd buf 0 (Bytes.length buf) with
  | 0 -> false
  | got ->
    let start = ref 0 in
    for j = 0 to got - 1 do
      if Bytes.get buf j = '\n' then begin
        Buffer.add_subbytes partial buf !start (j - !start);
        on_line (Buffer.contents partial);
        Buffer.clear partial;
        start := j + 1
      end
    done;
    Buffer.add_subbytes partial buf !start (got - !start);
    true
  | exception Unix.Unix_error ((Unix.EINTR | Unix.EAGAIN), _, _) -> true
  | exception Unix.Unix_error _ -> false

(* Send [reqs] (one JSON line each, newline included) at [rate] per
   second and collect the in-order replies. Returns once every reply
   has arrived, or [deadline_s] after the last due time, whichever is
   first; a request without a reply by then has [recv = 0]. *)
let run ~port ~rate ~deadline_s (reqs : string array) =
  let n = Array.length reqs in
  let fd = connect port in
  let t0 = now_ns () + 5_000_000 in
  let due = Array.init n (fun i -> t0 + (i * 1_000_000_000 / rate)) in
  let sent = Array.make n 0 and recv = Array.make n 0 in
  let lines = Array.make n "" in
  let sender_done = Atomic.make false in
  let sender =
    Domain.spawn (fun () ->
        (try
           for i = 0 to n - 1 do
             wait_until due.(i);
             write_all fd reqs.(i);
             sent.(i) <- now_ns ()
           done
         with Unix.Unix_error _ -> ());
        Atomic.set sender_done true)
  in
  let deadline_ns = int_of_float (deadline_s *. 1e9) in
  let last_due = if n = 0 then t0 else due.(n - 1) in
  let buf = Bytes.create 65536 in
  let partial = Buffer.create 256 in
  let k = ref 0 in
  let eof = ref false in
  let on_line line =
    if !k < n then begin
      lines.(!k) <- line;
      recv.(!k) <- now_ns ()
    end;
    incr k
  in
  while
    !k < n && (not !eof)
    && not (Atomic.get sender_done && now_ns () > last_due + deadline_ns)
  do
    match Unix.select [ fd ] [] [] 0.05 with
    | [], _, _ -> ()
    | _ -> eof := not (read_lines fd buf partial on_line)
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> ()
  done;
  (* closing unblocks a sender stuck on a full socket *)
  (try Unix.shutdown fd Unix.SHUTDOWN_ALL with Unix.Unix_error _ -> ());
  Domain.join sender;
  Unix.close fd;
  { due; sent; recv; lines }

(* Closed-loop drain: keep [window] requests outstanding on one
   connection until every reply has arrived, sending the next request
   as each reply comes in. Returns the reply lines ("" where none came)
   and the seconds from the first send to the last reply. It stops
   early when no reply arrives for [deadline_s] or the connection
   fails. *)
let drain ~port ~window ~deadline_s (reqs : string array) =
  let n = Array.length reqs in
  let fd = connect port in
  let lines = Array.make n "" in
  let buf = Bytes.create 65536 and partial = Buffer.create 256 in
  let sent = ref 0 and k = ref 0 and ok = ref true in
  let t0 = now_ns () in
  let last = ref t0 in
  let send_upto lim =
    while !sent < min n lim do
      write_all fd reqs.(!sent);
      incr sent
    done
  in
  let on_line line =
    if !k < n then lines.(!k) <- line;
    incr k;
    last := now_ns ()
  in
  (try
     send_upto window;
     while !ok && !k < n && now_ns () - !last < int_of_float (deadline_s *. 1e9) do
       match Unix.select [ fd ] [] [] 0.05 with
       | [], _, _ -> ()
       | _ ->
         ok := read_lines fd buf partial on_line;
         send_upto (!k + window)
       | exception Unix.Unix_error (Unix.EINTR, _, _) -> ()
     done
   with Unix.Unix_error _ -> ());
  Unix.close fd;
  (lines, secs_of_ns (!last - t0))

(* Milliseconds from due to reply, for replies within the deadline. *)
let latency_ms r i = float_of_int (r.recv.(i) - r.due.(i)) *. 1e-6

let answered ~deadline_s r i =
  r.recv.(i) > 0 && latency_ms r i <= deadline_s *. 1e3

let late_ms r =
  Array.of_list
    (List.filter_map
       (fun i -> if r.sent.(i) > 0 then Some (float_of_int (r.sent.(i) - r.due.(i)) *. 1e-6) else None)
       (List.init (Array.length r.due) Fun.id))

(* Requests sent but not yet answered when the last request was due:
   the backlog the system carries at the end of a rung. *)
let backlog_at_end r =
  let n = Array.length r.due in
  if n = 0 then 0
  else
    let t = r.due.(n - 1) in
    let c = ref 0 in
    for i = 0 to n - 1 do
      if r.sent.(i) > 0 && r.sent.(i) <= t && (r.recv.(i) = 0 || r.recv.(i) > t) then incr c
    done;
    !c

(* One JSON request/reply over a fresh connection (stats probes). *)
let call ~port line =
  let fd = connect port in
  Unix.setsockopt_float fd Unix.SO_RCVTIMEO 5.0;
  Fun.protect ~finally:(fun () -> Unix.close fd) (fun () ->
      write_all fd (line ^ "\n");
      let buf = Buffer.create 1024 and b = Bytes.create 4096 in
      let rec go () =
        match Unix.read fd b 0 4096 with
        | 0 -> Buffer.contents buf
        | got -> (
          Buffer.add_subbytes buf b 0 got;
          match String.index_opt (Buffer.contents buf) '\n' with
          | Some i -> String.sub (Buffer.contents buf) 0 i
          | None -> go ())
      in
      go ())
