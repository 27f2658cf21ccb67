(** The Crossing Guard coherence interface (paper, section 2.1).

    This is the standardized message vocabulary between an accelerator cache
    hierarchy and the Crossing Guard hardware.  The accelerator can make five
    requests and receive one of four responses; the host (through Crossing
    Guard) can make one request and receive one of three responses.  Every
    request always results in exactly one response.

    Design-space notes carried over from the paper:
    - [Get_s] asks for a shared, read-only copy; [Get_m] for an exclusive,
      writable one.  Either may be answered with an exclusive grant ([Data_e] /
      [Data_m]) as an optimization; [Get_m] is never answered with [Data_s].
    - [Put_m] and [Put_e] carry data to avoid a multi-phase commit; every Put
      is answered with [Wb_ack].
    - On [Invalidate], an accelerator holding the block in M must answer
      [Dirty_wb], in E [Clean_wb], otherwise [Inv_ack].
    - The link carrying these messages must be ordered (see {!Link}); the only
      remaining race is an accelerator Put crossing a host Invalidate. *)

type accel_request =
  | Get_s  (** request a shared, read-only copy *)
  | Get_m  (** request an exclusive, writable copy *)
  | Put_s  (** evict a shared copy (no data) *)
  | Put_e of Data.t  (** evict a clean exclusive copy, data attached *)
  | Put_m of Data.t  (** evict a dirty copy, data attached *)

type xg_response =
  | Data_s of Data.t  (** shared + clean *)
  | Data_e of Data.t  (** exclusive + clean *)
  | Data_m of Data.t  (** exclusive + modified *)
  | Wb_ack  (** acknowledges any Put *)

type xg_request = Invalidate  (** the host needs the block back *)

type accel_response =
  | Clean_wb of Data.t  (** block was held in E *)
  | Dirty_wb of Data.t  (** block was held in M *)
  | Inv_ack  (** block not held in an owned state *)

(** Everything that can travel on the XG-accelerator link, in either
    direction.  Both directions share one message type so a single ordered
    network instance carries the link, and so the fuzzer can inject any
    syntactically valid message. *)
type msg =
  | To_xg_req of { addr : Addr.t; req : accel_request }
  | To_xg_resp of { addr : Addr.t; resp : accel_response }
  | To_accel_resp of { addr : Addr.t; resp : xg_response }
  | To_accel_req of { addr : Addr.t; req : xg_request }

val request_carries_data : accel_request -> bool
(** True for [Put_e] and [Put_m] — the single-phase writebacks of §2.1 that
    attach data to the eviction request itself. *)

val response_carries_data : accel_response -> bool
(** True for [Clean_wb] and [Dirty_wb]; an [Inv_ack] is control-only. *)

val is_put : accel_request -> bool
(** True for every eviction request ([Put_s]/[Put_e]/[Put_m]); these are the
    messages a [puts_needed = false] host lets the guard suppress. *)

val msg_size : msg -> int
(** Bytes on the wire: {!Xguard_network.Network.data_size} when data is
    attached, [control_size] otherwise. *)

val msg_addr : msg -> Addr.t
(** The block address a message concerns (every link message names one). *)

(** Printers in the paper's message names ([GetS], [DataE], [DirtyWB], …);
    used by the trace layer and the fuzzer's failure reports. *)

val pp_accel_request : Format.formatter -> accel_request -> unit
val pp_xg_response : Format.formatter -> xg_response -> unit
val pp_accel_response : Format.formatter -> accel_response -> unit
val pp_msg : Format.formatter -> msg -> unit

val add_accel_request : Buffer.t -> accel_request -> unit
(** Append the text {!pp_accel_request} prints, without [Format]. *)

val add_msg_text : Buffer.t -> msg -> unit
(** Append the text {!pp_msg} prints, without [Format]. *)

val corrupt_msg : msg -> msg
(** What one injected bit-flip does to a message: the nearest plausible
    wrong message (request/response flavor flipped, data token damaged).
    Installed as the link's payload corruptor; exposed for tests. *)

val span_txn_of_request : accel_request -> Xguard_obs.Spans.txn
(** The span-layer transaction type of an accelerator request ([Get_s] ->
    [Spans.Get_s], …); shared by the link hooks and {!Xg_core}. *)

(** The ordered link between one Crossing Guard instance and its accelerator:
    a network specialised to {!msg}.  The paper requires this network to be
    ordered; ablation A1 measures what breaks when it is not.

    Beyond the plain network the link optionally runs a reliability layer
    ({!Link.enable_reliability}): every payload then travels in a frame with a
    per-directed-channel sequence number and checksum; the receiver delivers
    in order exactly once, suppresses duplicates, and Nacks gaps and
    corruption; the sender retransmits go-back-N style with capped exponential
    backoff, and escalates through [on_fault] after [max_retries] silent
    rounds so the guard can quarantine a dead link.  With reliability off the
    wire format and behavior are byte-for-byte the historical link. *)
module Link : sig
  type t

  val create :
    engine:Xguard_sim.Engine.t ->
    rng:Xguard_sim.Rng.t ->
    name:string ->
    ordering:Xguard_network.Network.ordering ->
    unit ->
    t

  val name : t -> string

  val mark_crossing : t -> unit
  (** Declare this link a host-accelerator crossing (the guard link).  Only
      crossing links feed the span layer: sends open/stamp crossing entries
      and deliveries close the transit segments ([link.req], [link.resp],
      [inv.roundtrip]).  Set by [System.build] only when a span recorder is
      armed, so unarmed runs are untouched.  Accel-internal links are never
      marked. *)

  val set_metrics_label : t -> string -> unit
  (** Attribute this guard link's metrics series ("xg" legacy, "xg.a0" in a
      topology).  Set by [System.build] only when a metrics recorder is
      armed; the empty default keeps the metrics hooks silent. *)

  val register : t -> Node.t -> (src:Node.t -> msg -> unit) -> unit
  (** Attach a handler for payload messages addressed to this node; the
      reliability layer's frames and acks are consumed internally.
      @raise Invalid_argument on double registration. *)

  val send : t -> src:Node.t -> dst:Node.t -> ?size:int -> msg -> unit
  (** Deliver [msg] to [dst]'s handler after the link latency.  In reliable
      mode the payload is framed (+8 bytes of header) and retransmitted until
      acknowledged; on a dead or killed channel the send is counted and
      dropped. *)

  val messages_sent : t -> int
  (** Wire messages, including frames, retransmissions, acks and nacks. *)

  val bytes_sent : t -> int
  val bytes_from : t -> Node.t -> int

  val set_monitor : t -> (src:Node.t -> dst:Node.t -> msg -> unit) -> unit
  (** Observe every payload once at send time (never retransmissions). *)

  val set_tracer : t -> (msg -> int * string) -> unit
  (** Payload description for the trace buffer; frames render as
      ["#seq <payload>"], acks and nacks as [LinkAck]/[LinkNack]. *)

  (* ---- reliability ---- *)

  val enable_reliability : t -> ?retry_timeout:int -> ?max_retries:int -> unit -> unit
  (** Switch the link to framed, exactly-once delivery.  [retry_timeout]
      (default 32 cycles) is the initial retransmission timeout, doubled per
      silent round up to 16×; after [max_retries] (default 6) silent rounds
      every further round calls [on_fault]. *)

  val reliable : t -> bool

  val set_fault_handler : t -> on_fault:(unit -> unit) -> on_recover:(unit -> unit) -> unit
  (** [on_fault] fires once per unrecoverable retransmission round;
      [on_recover] when acknowledgement progress resumes afterwards. *)

  val kill : t -> unit
  (** The recovery endpoint: marks every channel dead, clears retransmission
      queues (so the simulation drains) and cuts the underlying wire.
      Idempotent. *)

  val killed : t -> bool

  (* ---- reset handshake (recovery lifecycle) ---- *)

  val reset :
    t ->
    src:Node.t ->
    dst:Node.t ->
    ?timeout:int ->
    ?attempts:int ->
    on_ready:(unit -> unit) ->
    on_dead:(unit -> unit) ->
    unit ->
    unit
  (** Start the link-reset handshake that undoes {!kill}: splice the wire,
      revive every channel with all go-back-N state rewound (sequence numbers
      to 0, retransmission queues cleared, backoff reset), then send a
      [Reset] frame from [src] to [dst] and wait for the matching
      [Reset_ack].  The responder flushes the accelerator-side model via
      {!set_reset_handler} on the first [Reset] of a generation and re-acks
      duplicates, so the handshake survives the same lossy wire it repairs;
      the initiator retries every [timeout] cycles (default 64) up to
      [attempts] times (default 4), then gives up and calls [on_dead].
      [on_ready] fires when the ack lands.  Generation numbers keep stale
      acks from completing a newer handshake. *)

  val set_reset_handler : t -> (unit -> unit) -> unit
  (** Hook fired at the responder on the first [Reset] of each generation —
      the harness wires the accelerator-side cache flush here. *)

  val channel_state : t -> src:Node.t -> dst:Node.t -> int * int * int
  (** [(next_seq, rx_next, outstanding)] of the directed channel [src]→[dst]
      — test observability for the sequence-number rewind. *)

  (* ---- fault injection (see {!Xguard_network.Network.Fault}) ---- *)

  val set_faults : t -> rng:Xguard_sim.Rng.t -> Xguard_network.Network.Fault.config -> unit
  val add_fault_script : t -> Xguard_network.Network.Fault.script -> unit

  val cut_wire : t -> unit
  (** Lossy-link injection: every message in both directions is silently
      dropped from now on.  Unlike {!kill}, the protocol machinery keeps
      trying — this is the directed "link went dark" fault. *)

  val faults_active : t -> bool
  val fault_counts : t -> Xguard_network.Network.Fault.counts

  (* ---- introspection ---- *)

  val in_flight : t -> int
  (** Frames sent but not yet cumulatively acknowledged, summed over all
      directed channels — the link's in-flight window.  Always [0] with
      reliability off (plain messages are not tracked).  Sampled as a
      span-layer gauge. *)

  val enable_check_mode : t -> ?ctrl_of:(int -> int) -> unit -> unit
  (** Arm the underlying network for the model checker: delivery events get
      (destination, block-address) choice tags and in-flight payloads are
      tracked for {!check_fingerprint}.  [ctrl_of] maps a destination node id
      to its POR controller id (see {!Xguard_network.Network.S.enable_check_mode}).
      Requires a tracer ({!set_tracer}) for payload renderings in the
      fingerprint. *)

  val check_fingerprint : t -> Buffer.t -> unit
  (** Append the link's in-flight message multiset and future FIFO release
      times to a canonical state fingerprint. *)

  val set_delay_chooser : t -> (lo:int -> hi:int -> int) -> unit
  (** Route the underlying network's [Unordered] latency draw through the
      checker's choice enumerator (no effect on ordered links). *)

  val link_stats : t -> Xguard_stats.Counter.Group.t
  (** Reliability-layer counters: frames sent/delivered, retransmission
      rounds, duplicates suppressed, corruption and gaps detected, faults
      escalated, recoveries. *)

  val coverage : t -> Xguard_stats.Counter.Group.t
  (** (channel condition × link event) visit counters scored against
      {!coverage_space}. *)

  val coverage_space : Xguard_trace.Coverage.space
  (** Space ["xg.link"]: states [Idle]/[Await]/[Retry]/[Failing]/[Dead] ×
      events [Send]/[Deliver]/[Dup]/[Gap]/[Corrupt]/[Ack]/[Nack]/[Retry]/
      [Fault]/[Recover]/[Kill]/…. *)
end
