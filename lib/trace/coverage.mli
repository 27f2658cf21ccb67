(** Transition-coverage matrices.

    A controller registers its (state × event) space once; its per-run
    coverage counters (keys of the form ["STATE.Event"], as accumulated by
    every controller's [visit] function into an
    {!Xguard_stats.Counter.Group.t}) are then analyzed against that space:
    which possible transitions were hit how often, which were never reached,
    and whether any visited key falls outside the registered vocabulary.

    This is the honest "we stressed the protocol" metric of the paper's §4.1
    methodology: the tests assert floors on {!fraction} and print
    {!uncovered} entries so blind spots in the suite stay visible. *)

type space = private {
  name : string;  (** controller kind, e.g. ["xg"], ["hammer.l1l2"] *)
  states : string list;
  events : string list;
  possible : string -> string -> bool;
      (** [possible state event] — whether the pair is reachable at all.
          Impossible entries are excluded from the coverage denominator and
          rendered as ["."] in the matrix. *)
  vocab : Xguard_stats.Counter.Group.vocab;
      (** the row-major ["STATE.Event"] names, hashed once when the space is
          created; {!intern_matrix} adopts it into each controller's group *)
  n_states : int;  (** [List.length states], counted once *)
  n_events : int;  (** [List.length events], counted once *)
}

val space :
  name:string ->
  states:string list ->
  events:string list ->
  ?possible:(string -> string -> bool) ->
  unit ->
  space
(** [possible] defaults to every pair being reachable.  Builds the space's
    vocabulary eagerly, so define each space once, as a module-level value:
    every controller instance then shares it read-only, on any domain. *)

type matrix = {
  group : Xguard_stats.Counter.Group.t;
  ids : Xguard_stats.Counter.Group.id array;
      (** row-major: [state_index * n_events + event_index] *)
  n_states : int;
  n_events : int;
}
(** A space's full (state × event) vocabulary interned into a group once at
    controller creation, so hot-path [visit] functions record transitions by
    integer indices instead of building ["STATE.Event"] strings per event.
    Interned-but-never-hit pairs do not appear in the group's report, so
    [analyze] output is byte-identical to the string-keyed path. *)

val intern_matrix : space -> Xguard_stats.Counter.Group.t -> matrix
(** Adopts [space.vocab] into [group] ({!Xguard_stats.Counter.Group.adopt}):
    every (state, event) pair — including impossible ones, which keeps
    indexing trivial; untouched ids never surface — gets an id without being
    hashed again.  Pairs whose names collide share one id.  State and event
    indices follow the list order of [space.states]/[space.events].  [group]
    must not already know any of the space's names. *)

val hit : matrix -> state:int -> event:int -> unit
(** Allocation-free equivalent of
    [Group.incr group (List.nth states state ^ "." ^ List.nth events event)]. *)

type report = {
  about : space;
  count : string -> string -> int;  (** hits for a (state, event) pair *)
  covered : int;  (** possible pairs with at least one hit *)
  total : int;  (** possible pairs *)
  uncovered : (string * string) list;  (** possible pairs never hit *)
  stray : (string * int) list;
      (** visited coverage keys outside the registered space — either an
          impossible pair that actually fired or vocabulary drift between the
          controller and its registration; both deserve a look *)
}

val analyze : space -> Xguard_stats.Counter.Group.t list -> report
(** Sums the ["STATE.Event"] counters of all [groups] (several controllers of
    the same kind, or the same controller across runs) and scores them
    against the space.  Keys are split at the first ['.']. *)

val merge : report -> report -> report
(** [merge a b] scores the summed hit counts of both reports against [a]'s
    space: per-pair counts add, [covered]/[uncovered] are recomputed, stray
    keys are summed by key.  Pure (neither input is changed) and associative,
    so N workers' per-run reports fold into the report a single [analyze]
    over all their groups would produce.  The two reports must describe the
    same space ([Invalid_argument] if names, states or events differ). *)

val fraction : report -> float
(** [covered / total]; [1.0] for an empty space. *)

val to_table : report -> Xguard_stats.Table.t
(** The matrix: one row per state, one column per event.  Cells: hit count,
    ["-"] for a possible-but-unvisited pair, ["."] for an impossible one. *)

val pp : Format.formatter -> report -> unit
(** The matrix followed by a one-line summary and any stray keys. *)

val pp_uncovered : Format.formatter -> report -> unit
(** One ["state.event"] per line; nothing when fully covered. *)

val to_string : report -> string
