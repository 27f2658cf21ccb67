(** The Crossing Guard engine (paper §2–§3).

    One instance sits between one accelerator (over the ordered XG link) and
    one host protocol (through a protocol-specific {!host_port}, implemented
    by [Xguard_host_hammer.Xg_port] and [Xguard_host_mesi.Xg_port]).  The
    engine enforces the guarantees of Figure 1 on the accelerator's behalf —
    the host side is trusted and never checked:

    - G0a/G0b: page permissions, via {!Perm_table};
    - G1a: requests consistent with the block's stable state at the
      accelerator (checked only in [Full_state] mode; [Transactional] relies
      on the host tolerating any transient-consistent request, which is what
      the [Xg_ready] host variants provide);
    - G1b: at most one open accelerator request per block;
    - G2a: response types consistent with block state ([Full_state] corrects
      a wrong response, e.g. substitutes a zeroed dirty writeback when an
      owner answers InvAck);
    - G2b: no unsolicited responses;
    - G2c: a response deadline — on timeout the engine answers the host on
      the accelerator's behalf and reports the error.

    Violations are reported to the {!Os_model}; its policy may disable the
    accelerator, after which the engine drops accelerator traffic but keeps
    answering the host, preserving host liveness.

    Mode differences (paper §2.3): [Full_state] tracks the stable state of
    every block resident at the accelerator (an inclusive trusted directory)
    and works with unmodified hosts — including hosts without a non-upgradable
    GetS, for which it keeps a trusted copy of read-only-page blocks granted
    exclusively.  [Transactional] tracks only open transactions and requires
    the host's [Get_s_only] request plus the [Xg_ready] relaxations. *)

type mode = Full_state | Transactional

(** What the host-side port asks the engine when the host protocol needs the
    block back from the accelerator. *)
type host_need =
  | Fwd_s  (** another cache wants a shared copy; owners must supply data *)
  | Fwd_m  (** another cache wants exclusive ownership; all copies must go *)
  | Recall  (** the host wants the block returned (e.g. inclusive-L2 victim) *)

(** The engine's reply to a {!host_need}; the port translates it into host
    protocol messages. *)
type host_reply =
  | Reply_ack of { shared : bool }
      (** the accelerator holds no owned copy; [shared] reports whether it
          (possibly) retains a shared one *)
  | Reply_clean of Data.t
  | Reply_dirty of Data.t

(** Operations the engine needs from the host-side port. *)
type host_port = {
  get : Addr.t -> [ `S | `S_only | `M ] -> unit;
  put : Addr.t -> [ `S | `E of Data.t | `M of Data.t ] -> unit;
  puts_needed : bool;
      (** [false]: the host silently evicts shared blocks, so the engine
          suppresses accelerator PutS messages (paper §2.1) *)
  has_get_s_only : bool;
      (** whether the host implements the non-upgradable read; required by
          [Transactional] mode when read-only pages are in play *)
}

(** Recovery lifecycle policy (PR 8).  Installed via [create ?recovery], it
    turns the terminal quarantine into quarantine → link reset → probation →
    healthy: after [reset_delay] cycles the guard runs the
    {!Xg_iface.Link.reset} handshake ([reset_timeout] per attempt,
    [reset_attempts] attempts, a failed handshake burns a life), re-admits
    the accelerator on probation (requests throttled by a
    [probation_rate]/[probation_burst] token bucket, escalation threshold
    tightened to [probation_quarantine_after]), and promotes it after a
    fault-free [probation_window].  After [permakill_after] quarantines the
    guard kills the link permanently. *)
type recovery = {
  reset_delay : int;
  reset_timeout : int;
  reset_attempts : int;
  probation_window : int;
  probation_rate : float;
  probation_burst : int;
  probation_quarantine_after : int;
  permakill_after : int;
}

val make_recovery :
  ?reset_delay:int ->
  ?reset_timeout:int ->
  ?reset_attempts:int ->
  ?probation_window:int ->
  ?probation_rate:float ->
  ?probation_burst:int ->
  ?probation_quarantine_after:int ->
  ?permakill_after:int ->
  unit ->
  recovery
(** Defaults: reset after 200 cycles, 64-cycle handshake timeout × 4
    attempts, 2000-cycle probation window, 0.05 requests/cycle with burst 4
    on probation, quarantine after 2 faults on probation, permanent kill
    after 4 quarantines. *)

(** Per-phase hang budgets (PR 8): cycle ceilings for the req→decide (link
    delivery to guard decision, i.e. rate-limiter wait), inv→ack
    (invalidate sent to accelerator ack) and fetch→data (host fetch issue to
    grant) phases.  A tripped budget reports {!Os_model.Budget_exceeded} and
    feeds the same escalation ladder as a link fault — strictly before the
    coarse G2c timeout.  All-[None] (the {!no_budgets} default) schedules
    nothing: byte-identical to pre-budget runs. *)
type budgets = { req_decide : int option; inv_ack : int option; fetch_data : int option }

val no_budgets : budgets

type t

val create :
  engine:Xguard_sim.Engine.t ->
  name:string ->
  mode:mode ->
  link:Xg_iface.Link.t ->
  self:Node.t ->
  accel:Node.t ->
  host:host_port ->
  perms:Perm_table.t ->
  os:Os_model.t ->
  ?timeout:int ->
  ?processing_latency:int ->
  ?rate_limiter:Rate_limiter.t ->
  ?suppress_put_s_register:bool ->
  ?quarantine_after:int ->
  ?recovery:recovery ->
  ?budgets:budgets ->
  unit ->
  t
(** Registers [self] on [link].  [timeout] is the G2c deadline in cycles for
    accelerator responses.  [processing_latency] models the guard's pipeline
    (state lookup + translation) and is charged once per accelerator-link
    message processed (default 4 cycles).  [suppress_put_s_register] models the optimization
    register of §2.1: when set and the host does not need PutS, unnecessary
    PutS messages are consumed at the Crossing Guard.  [quarantine_after]
    (default 3) is how many consecutive unrecoverable link faults the engine
    tolerates before quarantining the accelerator. *)

val mode : t -> mode
(** Which §2.3 tracking discipline this instance runs. *)

(* ---- called by the host-side port ---- *)

val granted : t -> Addr.t -> [ `S of Data.t | `E of Data.t | `M of Data.t ] -> unit
(** The host satisfied the engine's outstanding get for this block. *)

val put_complete : t -> Addr.t -> unit
(** The host acknowledged the engine's writeback. *)

val host_request : t -> Addr.t -> need:host_need -> reply:(host_reply -> unit) -> unit
(** The host needs the block back; [reply] fires exactly once — immediately
    when the engine can answer from its own state, after an accelerator
    round-trip otherwise, and on behalf of the accelerator after a timeout or
    a corrected bad response. *)

(* ---- lossy-link degradation ---- *)

val link_fault : t -> unit
(** The reliability layer lost a full retransmission round on the
    accelerator link.  Reports {!Os_model.Link_fault}; after
    [quarantine_after] consecutive faults without {!link_recovered}, the
    engine calls {!quarantine}.  Wired to [Link.set_fault_handler]. *)

val link_recovered : t -> unit
(** Acknowledgement progress resumed after one or more faults: the
    consecutive-fault counter resets. *)

val quarantine : t -> unit
(** Give up on the accelerator (idempotent): answer every outstanding host
    invalidation from trusted state (the G2c substitution), hand tracked
    blocks back to the host (zeroed writebacks for untrusted dirty data),
    revoke the accelerator's pages in the permission table, mark the OS
    model quarantined and fire the [on_quarantine] hook (the harness kills
    the link there).  The host side stays fully live; all later accelerator
    traffic is dropped and all later host needs are answered locally. *)

val quarantined : t -> bool

val set_on_quarantine : t -> (unit -> unit) -> unit
(** Ran once per quarantine, after the drain and revocation (the harness
    kills the link there); with a recovery policy the reset handshake is
    scheduled after it runs. *)

(* ---- recovery lifecycle (PR 8) ---- *)

val in_probation : t -> bool
val permakilled : t -> bool

val quarantine_count : t -> int
(** Quarantines entered so far, including failed reset handshakes (each
    burns a life toward [permakill_after]). *)

val rejoins : t -> int
(** Completed reset handshakes: times the accelerator came back. *)

val budget_trips : t -> int
(** Per-phase hang-budget violations (sum over all three phases). *)

val down_cycles : t -> now:int -> int
(** Total cycles spent quarantined, counting a still-open quarantine up to
    [now] — the numerator of the E10 availability/MTTR metrics. *)

(* ---- introspection ---- *)

val accel_state : t -> Addr.t -> [ `I | `S | `E | `M | `Unknown ]
(** [Full_state] tracking; [`Unknown] in transactional mode for untracked
    blocks. *)

val open_transactions : t -> int
(** Accelerator transactions currently awaiting a host grant or writeback
    completion — the only state [Transactional] mode keeps. *)

val tracked_blocks : t -> int
(** Blocks in the full-state table (0 in transactional mode). *)

val peak_storage_bits : t -> int
(** High-water mark of {!storage_bits} over the run. *)

val storage_bits : t -> int
(** Current storage footprint of the tracking structures, in bits — the
    quantity Experiment E5 compares between the two modes (tags + state for
    Full_state, open-transaction entries for both, stored read-only data
    blocks if any).  A running total, O(1) to read. *)

val recount_storage_bits : t -> int
(** {!storage_bits} recomputed by folding every track and transaction slot;
    equal to it at every event boundary (the tests hold the running total
    to this). *)

val stats : t -> Xguard_stats.Counter.Group.t
(** Operational counters (grants, writebacks, suppressed PutS, timeouts,
    corrected responses, …) — the raw material of Experiments E2/E4/A2. *)

val coverage : t -> Xguard_stats.Counter.Group.t
(** Per-engine (state × event) visit counters, keyed ["STATE.Event"], scored
    against {!coverage_space}. *)

val coverage_space : Xguard_trace.Coverage.space
(** The guard's transition vocabulary.  States: the trusted stable states
    ([I]/[S]/[S_RO]/[E]/[M], full-state mode), permission classes
    ([T_NA]/[T_RO]/[T_RW], transactional mode) and the busy states
    ([B_get]/[B_put]/[B_inv]) while a transaction is open.  Events:
    accelerator requests and responses, host needs, host completions and the
    G2c timeout.  A single space spans both modes; merge coverage groups from
    runs of each mode to fill it.  The quarantined terminal adds state [Q]
    (only host-side events and the [Quarantine] drain are possible there). *)

val fault_coverage : t -> Xguard_stats.Counter.Group.t
(** Degradation-machine visits, scored against {!fault_coverage_space}. *)

val fault_coverage_space : Xguard_trace.Coverage.space
(** Space ["xg.fault"]: armed / degraded / quarantined / probation /
    permakilled × link-fault, recovery, quarantine, reset, rejoin,
    promotion, permanent-kill and budget-trip events. *)

(* ---- model-checker support (lib/check) ---- *)

val set_check_ctrl : t -> int -> unit
(** Controller id used to tag the engine's scheduled events for partial-order
    reduction.  The harness sets it to the host-side port's network node id so
    the guard, its port and link deliveries to the guard form one conflict
    cluster (they synchronously mutate each other's state). *)

val check_pending_slots : t -> int
(** Number of per-block pending records currently allocated, including inert
    ones — unit tests assert fully-drained slots are pruned so fingerprints
    stay path-independent. *)

val check_tracked : t -> (Addr.t * [ `S | `E | `M ] * Data.t option) list
(** Full-state tracking table, sorted by block (empty in transactional
    mode): trusted stable state and the guard's trusted copy, if any. *)

val check_tracked_state : t -> Addr.t -> [ `S | `E | `M ] option
(** The trusted stable state {!check_tracked} lists for one block, without
    listing the table. *)

val check_violation : t -> string option
(** G1b structural check: [Some msg] if any block has both a get and a put
    transaction open at once (the lowest such block). *)

val check_fingerprint : t -> Buffer.t -> unit
(** Append the tracking table, every pending slot (open get/put, outstanding
    invalidation, absorb count, stalled requests) and the degradation state to
    a canonical fingerprint (stats, coverage, trace and span state excluded). *)
