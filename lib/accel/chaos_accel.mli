(** Pathologically misbehaving accelerator for fuzz testing (paper §4).

    "We then bombard the Crossing Guard with a stream of random coherence
    messages to random addresses, and find that Crossing Guard provides
    safety even when the accelerator is behaving badly: this fuzz testing
    never leads to a crash or deadlock."

    The chaos accelerator sits on the accelerator side of the XG link and
    emits syntactically well-formed but semantically arbitrary messages:
    requests and responses of every kind, to random addresses, at a
    configurable rate.  It answers host Invalidations randomly — with the
    right type, the wrong type, or not at all (exercising the G2c timeout). *)

type t

val create :
  engine:Xguard_sim.Engine.t ->
  rng:Xguard_sim.Rng.t ->
  link:Xguard_xg.Xg_iface.Link.t ->
  self:Node.t ->
  xg:Node.t ->
  addresses:Addr.t array ->
  ?period:int ->
  ?respond_probability:float ->
  ?requests_only:bool ->
  ?tarpit:int ->
  ?duration:int ->
  unit ->
  t
(** Registers [self] on [link] and starts firing every [period] cycles for
    [duration] cycles (default 50_000).  [respond_probability] is the chance
    an Invalidate gets any reply at all.  [requests_only] suppresses random
    spontaneous responses, so unanswered Invalidates stay unanswered (the
    G2c timeout scenario).  [tarpit] (PR 8) overrides the Invalidate policy:
    every Invalidate is answered with a correct [Inv_ack], but exactly that
    many cycles late — pick a lag between the guard's inv→ack hang budget
    and its G2c timeout to show budgets trip strictly first. *)

val messages_sent : t -> int
val invalidations_ignored : t -> int
