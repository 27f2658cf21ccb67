(** Discrete-event simulation kernel.

    The engine owns virtual time (an integer cycle count) and a priority queue
    of events.  Events scheduled for the same cycle fire in FIFO order of
    scheduling, which makes runs deterministic.  Controllers never busy-wait:
    all activity is message deliveries and timer callbacks scheduled here. *)

type time = int

type t

val create : unit -> t

val now : t -> time
(** Current virtual time.  [0] before any event has fired. *)

val schedule : t -> delay:int -> ?tag:int -> (unit -> unit) -> unit
(** [schedule t ~delay f] runs [f] at [now t + delay].  [delay] must be [>= 0];
    a zero delay fires later in the current cycle, after already-queued
    same-cycle events.  [tag] (default {!no_tag}) is a choice tag for the
    model checker — see {!pack_tag}; it never affects normal execution. *)

val schedule_at : t -> time -> ?tag:int -> (unit -> unit) -> unit
(** Absolute-time variant of {!schedule}.  The time must not be in the past. *)

val pending : t -> int
(** Number of events not yet fired. *)

val events_fired : t -> int
(** Total events executed since [create]. *)

val events_fired_here : unit -> int
(** Total events executed by {!run} on the calling domain, summed across all
    engines.  Monotonic; subtract two readings to attribute an event count to
    a code region.  Per-domain (not global), so parallel harness workers each
    see only their own engines — the bench harness derives events/sec from
    this around each experiment. *)

type run_result =
  | Drained  (** the event queue emptied *)
  | Hit_time_limit  (** [until] was reached with events still pending *)
  | Hit_event_limit  (** [max_events] fired with events still pending *)
  | Stopped  (** {!stop} was called from inside an event *)

val run : ?until:time -> ?max_events:int -> t -> run_result
(** Execute events in order until one of the stop conditions holds.  [until] is
    an inclusive bound on event timestamps.  Can be called repeatedly; each call
    resumes where the previous one stopped. *)

val stop : t -> unit
(** Request that {!run} return [Stopped] after the current event completes. *)

val set_sampler : t -> period:int -> (time -> unit) -> unit
(** Install the observer sampler: {!run} calls [f b] for every multiple [b]
    of [period] its clock passes — before the first event later than [b]
    fires, so the sample sees every event at or before [b], idle gaps
    included — and [f now] once when it returns, unless no event fired
    since the last sample.  The sampler is not an event: it never keeps
    the engine alive, never moves its clock, and {!pending},
    {!events_fired} and {!choices} never see it. *)

val every : t -> period:int -> ?phase:int -> (unit -> bool) -> unit
(** [every t ~period f] calls [f] at [now + phase], then every [period] cycles
    for as long as [f] returns [true].  Used for pollers and watchdogs. *)

(** {2 Scheduler-choice layer}

    Support for the explicit-state model checker ([lib/check]).  Events
    scheduled for the same cycle are the simulator's only source of
    nondeterminism once link delays are fixed; the checker enumerates them
    with {!choices} and fires a chosen one with {!fire_choice} instead of
    letting {!run} pick the FIFO head.  None of this is consulted by {!run},
    so normal executions are byte-identical to pre-checker builds. *)

val no_tag : int
(** The tag of events scheduled without one; conflicts with everything. *)

val pack_tag : ctrl:int -> addr:int -> int
(** Pack a (controller id, block address) pair into a choice tag.  Two tagged
    events commute unless they share a controller or an address
    ({!tags_conflict}); the checker's partial-order reduction only branches on
    conflicting candidate sets.  [addr = -1] means "no specific block": every
    such event packs the same address field, so any two no-block events
    conflict, whichever controllers they belong to (sequencer pumps, local
    cache events), while a no-block event and another controller's block
    event commute.  Addresses are truncated to 24 bits — callers must keep
    block addresses below [2^24 - 1] in check configurations. *)

val tag_ctrl : int -> int
val tag_addr : int -> int

val tags_conflict : int -> int -> bool
(** Whether two events may fail to commute: either is {!no_tag}, or same
    controller, or same packed address (every no-block event has the
    same one). *)

val choices : t -> int
(** Gather every event sharing the minimal pending timestamp into the
    engine's choice pool, in scheduling (FIFO) order, and return how many
    there are ([0] when the queue is empty).  Candidate [0] is the event
    {!run} would fire next.  Read the pool with {!choice_tag} and
    {!choice_key}; it allocates nothing once its scratch array has grown.
    Keys index the internal heap and are invalidated by any schedule or
    fire — re-gather before each {!fire_choice}. *)

val choice_tag : t -> int -> int
(** The choice tag of pool candidate [i] (from the last {!choices}). *)

val choice_key : t -> int -> int
(** The heap key of pool candidate [i], for {!fire_choice}. *)

val fire_choice : t -> key:int -> unit
(** Fire the single event identified by [key] (from the current {!choices}):
    remove it from the queue, advance [now] to its timestamp and run its
    thunk.  @raise Invalid_argument on a stale or non-minimal key. *)

val pending_summary : t -> (int -> int -> unit) -> unit
(** [pending_summary t f] calls [f (at - now) tag] for every pending event,
    in (time, tag) order — the event queue's contribution to a canonical
    state fingerprint, as a multiset: the scheduling order of same-cycle
    events is not written.  That order cannot change the reachable future
    of a checker state, because at every pool the checker either branches
    over every candidate or fires one that commutes with all of them; it
    only renumbers the branches.  Leaves the {!choices} pool intact. *)
