(** Per-logical-domain execution context for the sharded (PDES) engine.

    A parallel simulation run partitions the system into logical domains,
    each executing its own {!Engine} over conservative time windows.  While
    a window runs, the executing worker installs the domain's [ctx] in
    domain-local storage; observability effects (trace/span mutations) and
    cross-domain message deliveries are captured here instead of performed,
    and the coordinator replays them at the window barrier in canonical
    (timestamp, domain, sequence) order.  That replay order depends only on
    simulated time and the fixed domain decomposition — never on the worker
    count — which is what makes [--sim-j k] output byte-identical for any
    [k]. *)

type ctx

val make : dom:int -> ctx
(** A context for logical domain [dom]. *)

val current : unit -> ctx option
(** The context installed on the calling OS thread, if any: the one check
    every recorder write makes to decide between deferring and recording. *)

val with_ctx : ctx -> (unit -> 'a) -> 'a
(** Run [f] with [ctx] installed; restores the previous context after.  The
    coordinator replays drained ops with {e no} context installed, so the
    deferred closures reach the real recorder on re-entry. *)

val defer : ctx -> ts:int -> (unit -> unit) -> unit
(** Capture an observability op performed at simulated time [ts]. *)

val post : ctx -> at:int -> (unit -> unit) -> unit
(** Capture a cross-domain delivery: [sched] schedules the delivery (at
    simulated time [at]) on the destination engine when the coordinator runs
    it at the barrier. *)

val fresh_span_id : ctx -> int
(** Deterministic domain-salted span ids (no two domains collide). *)

(** {2 Coordinator-side drains} *)

type op = { op_ts : int; op_dom : int; op_seq : int; op_run : unit -> unit }

val drain_ops : ctx array -> op array
(** All deferred ops across contexts, sorted by (ts, dom, seq); clears the
    per-context logs. *)

val drain_posts : ctx array -> op array
(** All cross-domain posts, sorted by (delivery time, dom, seq); clears. *)

val run_all : op array -> unit
