(** Fixed-size domain pool for embarrassingly parallel sweeps.

    The evaluation of the paper is a matrix — configurations × seeds — of
    mutually independent simulator runs.  [map] fans an indexed job list out
    over a fixed number of OCaml 5 domains pulling from a shared work queue,
    with two properties the campaign layer builds on:

    - {b Determinism}: the result array is indexed by job number, so the
      caller sees results in job order no matter which worker ran which job
      or in what order they finished.  Merging results in job order therefore
      yields output that is byte-identical for any worker count, provided
      each job is itself deterministic (every simulator run is: it depends
      only on its seed).
    - {b Crash isolation}: an exception escaping one job is caught on the
      worker, recorded as [Failed] for that job only, and the sweep
      continues.  One wedged or crashing run reports as a failure instead of
      killing the other N-1.

    Jobs must not share mutable state.  In this codebase each job builds its
    own {!Xguard_sim.Engine.t}-rooted system, so the only process-global
    state is the trace-arming flag of {!Xguard_trace.Trace} — which is why
    the CLI restricts [--trace] to [-j 1]. *)

type 'a outcome =
  | Done of 'a
  | Failed of string
      (** [Printexc.to_string] of the exception that escaped the job *)

val map : workers:int -> jobs:int -> (int -> 'a) -> 'a outcome array
(** [map ~workers ~jobs f] evaluates [f i] for every [0 <= i < jobs] and
    returns the outcomes indexed by [i].  At most [workers] domains run
    concurrently (clamped to [jobs]; [workers <= 1] runs everything on the
    calling domain, bypassing domain spawn entirely).  Raises [Invalid_argument]
    if [jobs < 0]. *)

(** Deterministic job → seed derivation.

    A campaign must give every job an independent, reproducible seed that
    does not collide with the consecutive-integer seeds users pass by hand.
    Seeds are drawn from the repository's splittable SplitMix64 stream
    ({!Xguard_sim.Rng}): the [job]th seed is the [job]th draw from a
    generator rooted at [base].  The mapping is pure — the same [(base, job)]
    pair always yields the same seed, independent of worker count or of how
    many other jobs exist. *)
module Seed : sig
  val derive : base:int -> job:int -> int
  (** The [job]th seed of the stream rooted at [base].  O(job); prefer
      {!derive_all} when enumerating a whole campaign. *)

  val derive_all : base:int -> count:int -> int array
  (** The first [count] seeds of the stream rooted at [base], in one pass.
      [derive_all ~base ~count].(j) = [derive ~base ~job:j]. *)
end
