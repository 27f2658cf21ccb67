(** Message-passing interconnect.

    Each coherence domain instantiates {!Make} with its own message type:
    the host protocol network, the Crossing-Guard-to-accelerator link and the
    accelerator-internal network are separate instances with separate ordering
    disciplines.  Buffering is unbounded (protocol deadlock, not network
    deadlock, is the subject of study — as in the paper's gem5 setup, where
    virtual networks prevent buffer deadlock).

    Ordering disciplines:
    - [Ordered]: per (source, destination) FIFO with a fixed latency.  Required
      for the XG-accelerator link (paper section 2.1).
    - [Unordered]: per-message latency drawn uniformly from a range, so
      messages race and overtake — the paper's stress-test methodology
      ("message latencies are chosen randomly").

    A network can additionally run a lossy-link fault model (see {!Fault}):
    seeded probabilistic drop/duplicate/corrupt/delay injection plus
    deterministic scripts that target the Nth message matching a predicate.
    With no fault model installed, the send path is byte-for-byte the
    historical one (no extra RNG draws), so fault-free runs stay reproducible
    against pre-fault builds. *)

type ordering =
  | Ordered of { latency : int }
  | Unordered of { min_latency : int; max_latency : int }

(** Lossy-link fault model: what can happen to a message in flight. *)
module Fault : sig
  type kind =
    | Drop  (** message lost *)
    | Duplicate  (** delivered twice, second copy one cycle behind *)
    | Corrupt  (** payload mutated via the network's corruptor *)
    | Delay of int  (** delivered late by the given number of cycles *)
    | Kill  (** cuts the wire: this and every later message is lost *)

  (** Per-message probabilities for the seeded model.  [drop] is drawn first
      and excludes the others; [corrupt], [duplicate] and [delay] draws are
      independent.  A delayed message is late by 1..[max_delay] cycles. *)
  type config = {
    drop : float;
    duplicate : float;
    corrupt : float;
    delay : float;
    max_delay : int;
  }

  val zero : config
  (** All probabilities 0.0 — a fault model that never fires.  Installing it
      still leaves the send path untouched (no draws are made). *)

  val active : config -> bool
  (** Whether any probability can ever fire. *)

  (** A deterministic fault: hit the [nth] (1-based) message whose trace text
      contains [needle] ([None] matches every message) with [kind].  Scripts
      make "lose exactly the first DataM" experiments reproducible without
      probability sweeps. *)
  type script = { nth : int; needle : string option; kind : kind }

  val script_of_string : string -> (script, string) result
  (** Parses ["KIND:N[:NEEDLE]"] where KIND is
      [drop|dup|corrupt|kill|delay@CYCLES] — the CLI [--fault-script]
      syntax. *)

  val script_to_string : script -> string

  (** Injection tally, by kind. *)
  type counts = {
    mutable drops : int;
    mutable duplicates : int;
    mutable corrupts : int;
    mutable delays : int;
  }

  val counts_to_list : counts -> (string * int) list
  (** Stable [(label, count)] rendering for reports. *)
end

module Make (Msg : sig
  type t
end) : sig
  type t

  val create :
    engine:Xguard_sim.Engine.t ->
    rng:Xguard_sim.Rng.t ->
    name:string ->
    ordering:ordering ->
    unit ->
    t

  val name : t -> string

  val register : t -> Xguard_proto.Node.t -> (src:Xguard_proto.Node.t -> Msg.t -> unit) -> unit
  (** Attach a handler for messages addressed to this node.
      @raise Invalid_argument on double registration. *)

  val send : t -> src:Xguard_proto.Node.t -> dst:Xguard_proto.Node.t -> ?size:int -> Msg.t -> unit
  (** Deliver [msg] to [dst]'s handler after the network latency.  [size] in
      bytes feeds the bandwidth counters (default 8, a control message;
      data-carrying messages should pass 72 = 64 B block + header).
      @raise Invalid_argument if [dst] was never registered. *)

  val messages_sent : t -> int
  val bytes_sent : t -> int

  val bytes_from : t -> Xguard_proto.Node.t -> int
  (** Bytes sent with this node as source — per-link bandwidth accounting,
      e.g. the paper's "Crossing-Guard-to-host bandwidth". *)

  val set_monitor : t -> (src:Xguard_proto.Node.t -> dst:Xguard_proto.Node.t -> Msg.t -> unit) -> unit
  (** Observe every message at send time (fuzz auditing, invariant checks). *)

  val set_tracer : t -> (Msg.t -> int * string) -> unit
  (** Teach the network how to describe a message to the armed
      {!Xguard_trace.Trace} buffer: the block address it concerns (or
      {!Xguard_trace.Trace.no_addr}) and a short rendering.  Consulted only
      while a trace buffer is armed; send and delivery of every message then
      produce [Msg_send]/[Msg_recv] events.  Also consulted by fault scripts
      to match needles (regardless of trace arming). *)

  (* ---- fault injection ---- *)

  val set_faults : t -> rng:Xguard_sim.Rng.t -> Fault.config -> unit
  (** Installs the probabilistic fault model.  [rng] must be a standalone
      stream (not split from a component stream) so enabling faults does not
      perturb the rest of the simulation. *)

  val add_fault_script : t -> Fault.script -> unit
  (** Adds a deterministic script; scripts are checked before the
      probabilistic model, in the order added. *)

  val set_corruptor : t -> (Msg.t -> Msg.t) -> unit
  (** How [Corrupt] mutates a payload.  Without a corruptor, a corrupted
      message is modelled as lost (damaged beyond parsing). *)

  val cut_wire : t -> unit
  (** Silently discards this and every subsequent message — the directed
      kill-the-link fault. *)

  val wire_cut : t -> bool

  val splice_wire : t -> unit
  (** Reverses {!cut_wire}: messages flow again (the recovery handshake's
      physical re-connect).  Probabilistic faults and pending scripts, if any,
      stay installed. *)

  val faults_active : t -> bool
  (** Whether any injection can occur (wire cut, scripts pending, or an
      installed model with a nonzero probability). *)

  val fault_counts : t -> Fault.counts
  (** Injection tally; all zeros when no fault ever fired. *)

  (* ---- model-checker support (lib/check) ---- *)

  val enable_check_mode : t -> ?ctrl_of:(int -> int) -> addr_of:(Msg.t -> int) -> unit -> unit
  (** Arm the network for explicit-state checking: every delivery event is
      scheduled with an {!Xguard_sim.Engine.pack_tag} choice tag built from
      the destination node and [addr_of msg] (return [-1] for messages that
      concern no block), and in-flight messages are tracked for
      {!check_fingerprint}.  [ctrl_of] (default identity) maps a destination
      node id to the controller id used in the tag — the harness aliases the
      guard's link endpoint to its host-side port so events that synchronously
      mutate the same state share one conflict cluster.  Tracking costs one
      hash-table insert/remove per message and renders nothing: a message's
      text is produced only when a fingerprint is taken.  Networks never
      armed are byte-identical to historical ones. *)

  val set_delay_chooser : t -> (lo:int -> hi:int -> int) -> unit
  (** Replace the RNG draw of [Unordered] latency with a callback — the
      checker's hook for treating link delay as an enumerated choice.  No
      effect on [Ordered] networks. *)

  val check_fingerprint : t -> Buffer.t -> unit
  (** Append this network's architecturally-visible state to a canonical
      fingerprint: the in-flight message multiset (relative delivery time,
      endpoints, payload rendering — requires {!enable_check_mode} and a
      tracer, which renders each in-flight message now; messages are
      immutable, so the text equals what it would have been at send time)
      and any FIFO-ordering release times still in the future. *)
end

(** Message sizes used throughout: a bare control message and one carrying a
    64-byte data block. *)
val control_size : int

val data_size : int
