(** Token-bucket rate limiter for accelerator requests (paper §2.5).

    Protects the host from denial-of-service by a flood of legitimate
    messages: requests above the configured rate are delayed (responses are
    never limited).  The rate is set by OS-controlled registers; the
    experiment E7 sweeps it. *)

type t

val create :
  engine:Xguard_sim.Engine.t ->
  tokens_per_cycle:float ->
  burst:int ->
  unit ->
  t
(** [tokens_per_cycle] is the sustained request rate; [burst] the bucket
    capacity.
    @raise Invalid_argument if the rate or the burst is not positive — a
    zero-capacity bucket could never accumulate a whole token, so every
    request would be requeued forever. *)

val admit : t -> (unit -> unit) -> unit
(** Run the action when a token is available: immediately if the bucket is
    non-empty, otherwise after the earliest cycle with a token, preserving
    FIFO order among delayed actions. *)

val delayed : t -> int
(** Number of requests that were delayed so far. *)
