(** The connection front shared by {!Server} ([lapis serve --tcp]) and
    {!Router} ([lapis fleet]): everything between the listening socket
    and a request handler.

    - An accept loop hands each connection to a lightweight reader
      thread that only parses line/frame boundaries and enqueues jobs,
      so an idle or slow client never occupies a worker. The first
      byte picks the connection's codec: [0xB1] means length-prefixed
      binary frames, anything else line-delimited JSON (the binary
      magic can never start a JSON line).
    - A fixed worker pool drains a bounded job queue. Each job is
      decoded, handed to the caller's handler, and encoded back in the
      codec it came in; undecodable input earns a [parse-error]
      answer, a handler exception an [internal] one. An unframeable
      binary stream answers one error frame and stops reading (binary
      framing cannot be resynchronized).
    - Responses are re-sequenced per connection before writing, so each
      client sees answers in the order it sent requests even though
      the pool completes them out of order.
    - Shutdown ({!stop}, or {!signal_stop} noticed by the accept loop)
      is graceful and runs once: stop accepting (but take what the
      listen backlog already holds), half-close every connection so
      readers drain what was already sent, finish every queued job,
      flush, join, then run the caller's [on_stopped].

    Three things differ between the callers, and each is an argument
    of {!create}/{!run}: the pool kind, what a full queue does, and
    the handler. Every connection bumps the ["<name>:connections"]
    counter and every answered message ["<name>:requests"]. *)

type pool =
  | Domains  (** worker domains — CPU-bound evaluation in parallel *)
  | Threads  (** worker threads — IO-bound work waiting on sockets *)

type on_full =
  | Block
      (** the reader waits for room: back-pressure toward the socket *)
  | Shed
      (** the message is answered at once with an [overloaded] error
          (through the resequencer, so it keeps its place in the
          connection's order) and counted under ["<name>:shed"] *)

type t

val create :
  name:string ->
  pool:pool ->
  workers:int ->
  queue_bound:int ->
  on_full:on_full ->
  host:string ->
  port:int ->
  backlog:int ->
  (t, string) result
(** Bind the listening socket; nothing is accepted before {!run}.
    [name] prefixes the stage counters. [Error] carries a
    human-readable message if the socket cannot be bound. *)

val run :
  ?on_stopped:(unit -> unit) ->
  t ->
  (Protocol.request -> Protocol.response) ->
  unit
(** Spawn the workers and the accept loop, answering every decoded
    request with the handler. [on_stopped] runs once, on the shutdown
    path, after every worker has been joined and every connection
    closed, and before {!wait} returns. *)

val port : t -> int
(** The actually bound port — useful with [port = 0] in tests. *)

val connections_served : t -> int

val gauges : t -> (string * float) list
(** [queue_depth], [queue_capacity], [workers] and [connections] —
    the serving state both callers' [stats] op reports first. *)

val stopping : t -> bool
(** A stop has been requested. *)

val signal_stop : t -> unit
(** Async-signal-safe stop request (an atomic flag store); the accept
    loop notices within its poll interval. Pair with {!wait}. *)

val wait : t -> unit
(** Block until shutdown has completed. *)

val stop : t -> unit
(** Graceful shutdown; blocks until every queued request is answered
    and every thread and worker has been joined. Idempotent. *)

val write_all : Unix.file_descr -> string -> unit
(** Write the whole string, looping over short writes. *)
