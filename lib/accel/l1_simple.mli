(** Single-level accelerator cache (paper, Table 1).

    A private cache that speaks the Crossing Guard interface downward.  The
    MESI flavor is exactly the published transition matrix: stable states
    M/E/S/I plus the single transient state B (Busy).  Two degenerate flavors
    demonstrate the interface-simplification freedoms of section 2.1:

    - [Msi]: treats [Data_e] as [Data_m] and never sends [Put_e] or
      [Clean_wb] (only dirty writebacks) — an MSI design.
    - [Vi]: sends only [Get_m] requests and holds every block in V (= M) — a
      VI design.

    Loads and stores stall (are rejected to the sequencer) when the block is
    in B, when the set needs an eviction (the cache starts the eviction and
    the sequencer retries), or when [mshr_limit] misses are already
    outstanding. *)

type flavor = Mesi | Msi | Vi

type t

val create :
  engine:Xguard_sim.Engine.t ->
  name:string ->
  flavor:flavor ->
  sets:int ->
  ways:int ->
  ?hit_latency:int ->
  ?mshr_limit:int ->
  lower:Lower_port.t ->
  unit ->
  t

val name : t -> string
val flavor : t -> flavor

val cpu_port : t -> Access.port
(** Upward port for the accelerator core's sequencer. *)

val deliver : t -> Xguard_xg.Xg_iface.msg -> unit
(** Feed a message arriving from below ([To_accel_resp] or [To_accel_req]).
    @raise Invalid_argument on a [To_xg_*] message (wrong direction). *)

val resident : t -> int
(** Lines currently in the array (any state including B). *)

val coverage : t -> Xguard_stats.Counter.Group.t
(** Visited (state, event) pairs, keys like ["S.Store"] — the stress test's
    coverage metric (paper, section 4.1). *)

val pending_evictions : t -> int

val flush : t -> unit
(** Device-level reset (PR 8): drop every line — stable or busy — without
    writebacks, and zero the pending counters.  Wired to the guard link's
    reset handler; the quarantine drain already settled everything this
    cache owed the host.  In-flight completions are lost (their [on_done]
    never fires), and responses already on the wire for dropped lines are
    silently discarded rather than treated as protocol violations. *)

val probe : t -> Addr.t -> [ `I | `S | `E | `M | `B ]
(** Current state of a block, for tests and traces. *)

(** The published Table 1, as data: used to print the table (bench T1) and to
    check the implementation against it transition by transition. *)
module Spec : sig
  type state = M | E | S | I | B

  type event =
    | Load
    | Store
    | Replacement
    | Invalidate
    | Data_m_arrival
    | Data_e_arrival
    | Data_s_arrival
    | Wb_ack_arrival

  type outcome =
    | Impossible
    | Entry of { action : string; next : state }
        (** [action] in the table's own vocabulary: "hit", "issue GetM",
            "send Dirty WB", "stall", "-". *)

  val mesi : state -> event -> outcome
  val all_states : state list
  val all_events : event list
  val state_to_string : state -> string
  val event_to_string : event -> string
end

val coverage_space : Xguard_trace.Coverage.space
(** {!Spec.mesi} as a coverage space: possible pairs are exactly the non-
    [Impossible] Table 1 entries ([WB Ack] spelled ["WbAck"] to match the
    {!coverage} keys). *)

(* ---- model-checker support (lib/check) ---- *)

val set_check_ctrl : t -> int -> unit
(** Tag hit-latency completion events with this cache's controller id (its
    link node) so the model checker treats them as conflicting with the
    cache's message deliveries. *)

val check_each : t -> (Addr.t -> [> `S | `E | `M | `T ] -> Data.t -> unit) -> unit
(** [f addr class data] for every resident line, in no particular order:
    stability class ([`T] for Busy) and current data. *)

val check_fingerprint : t -> Buffer.t -> unit
(** Append all lines (including Busy pend details) to a canonical
    model-checker state fingerprint (coverage excluded). *)
