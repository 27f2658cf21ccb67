(** Pure-observer anomaly watchdog.

    Evaluated once per metrics sampler tick against exactly the data the tick
    snapshots — counter deltas and gauge values — so it is deterministic
    and invisible to the simulation.  Four rules:

    - [retry_storm]: total [*.retransmit_frames] delta in one tick reaches
      [retry_burst].
    - [quiesce_stall]: some [*.open_transactions] gauge is positive while no
      counter anywhere moved, for [stall_ticks] consecutive ticks.
    - [port_starved]: a sequencer's [*.outstanding] gauge is positive and its
      [*.completed] gauge is frozen for [starve_ticks] ticks while the rest
      of the system makes progress.
    - [gauge_ceiling]: a named gauge reaches an operator-declared level.

    Each rule latches: one [Trip] when it first fires, one [Clear] when the
    condition subsides.  Defaults escalate strictly before the G2c timeout
    (e.g. [stall_ticks] x sampler period = 2000 cycles < 4000). *)

type config = {
  retry_burst : int;
  stall_ticks : int;
  starve_ticks : int;
  ceilings : (string * int) list;
}

val default : config

val parse : string -> (config, string) result
(** Comma-separated overrides over {!default}:
    ["retry=64,stall=4,starve=8,ceil:xg.open_transactions=32"].  The empty
    string is {!default}. *)

val rules : string array
(** Rule names, index order = reporter [rule] argument. *)

val events : string array
(** [[|"Trip"; "Clear"|]], index order = reporter [event] argument. *)

val coverage_space : Xguard_trace.Coverage.space
(** The [obs.watchdog] (rule x Trip/Clear) coverage space. *)

type event = {
  w_ts : int;
  w_rule : string;
  w_event : string;  (** ["Trip"] or ["Clear"] *)
  w_detail : string;
}

type t

val create : config -> t

val set_reporter : t -> (rule:int -> event:int -> detail:string -> unit) -> unit
(** Called synchronously for every Trip/Clear; System bridges this to
    [Os_model.anomaly] and the coverage matrix. *)

val observe :
  t -> now:int -> deltas:(string * int) list -> gauges:(string * int) list -> event list
(** Judge one sampler tick; returns the Trip/Clear events it produced (also
    delivered to the reporter), oldest first.  Where each rule finds its
    gauges is planned once per layout of gauge names and reused while
    consecutive ticks carry the same names in the same order, as the
    metrics sampler's do. *)
