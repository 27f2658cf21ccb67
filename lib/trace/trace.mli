(** Structured protocol tracing (ring buffer).

    Controllers emit typed events — message send/receive, state transitions,
    stalls, TBE alloc/free — into a bounded ring buffer.  A ring is armed per
    domain through the observer context ([Xguard_obs.Obs.with_trace]); hook
    sites resolve the context once and emit only when it holds a ring, so
    the unarmed hot path pays one load and simulation results are identical
    with tracing compiled in.  Recording never schedules events, never draws
    random numbers and never grows memory past the ring's capacity, so
    traced runs are cycle-for-cycle identical to untraced ones.

    The intended call-site pattern guards any formatting work:

    {[ match Obs.trace () with
       | Some tr -> Trace.transition tr ~cycle ~controller:t.name ~addr ~state ~event ~next ()
       | None -> () ]} *)

type kind =
  | Msg_send  (** a message entered a network/link *)
  | Msg_recv  (** a message was delivered to its handler *)
  | Transition  (** a controller saw [event] in [state] *)
  | Stall  (** progress was deferred (queue, retry, MSHR full) *)
  | Tbe_alloc  (** a transaction buffer entry was allocated *)
  | Tbe_free  (** a transaction buffer entry was released *)
  | Note  (** free-form annotation (testers, checkers) *)

type event = {
  cycle : int;
  kind : kind;
  controller : string;  (** emitting component (controller or network) name *)
  addr : int;  (** block address, or {!no_addr} *)
  a : string;  (** kind-dependent: src / state / reason / text *)
  b : string;  (** kind-dependent: dst / protocol event *)
  c : string;  (** kind-dependent: payload text / next state *)
}

val no_addr : int
(** Address value meaning "not address-specific" (-1). *)

type t

val create : ?capacity:int -> unit -> t
(** A fresh ring buffer (default capacity 1024 events). *)

val recorded : t -> int
(** Total events ever recorded, including overwritten ones. *)

val length : t -> int
(** Events currently held: [recorded t], capped at the ring's capacity. *)

val dropped : t -> int
(** Events overwritten by ring wrap-around and no longer held:
    [recorded t - length t].  {!dump} prefixes its output with a
    ["(N events dropped — ring wrapped)"] line whenever this is non-zero, so
    truncated forensics are never mistaken for complete ones. *)

val to_list : t -> event list
(** Held events, oldest first. *)

val events_for : t -> addr:int -> event list
(** Held events touching [addr] (plus address-less [Note] events), oldest
    first. *)

(** {2 Emission} — each records into the given ring. *)

val send :
  t -> cycle:int -> net:string -> src:string -> dst:string -> addr:int -> text:string -> unit

val recv :
  t -> cycle:int -> net:string -> src:string -> dst:string -> addr:int -> text:string -> unit

val transition :
  t -> cycle:int -> controller:string -> addr:int -> state:string -> event:string ->
  ?next:string -> unit -> unit
(** [next] may be omitted when the resulting state is not cheaply known at the
    emission point; the dump then shows only [state] and [event]. *)

val stall : t -> cycle:int -> controller:string -> addr:int -> why:string -> unit
val tbe_alloc : t -> cycle:int -> controller:string -> addr:int -> unit
val tbe_free : t -> cycle:int -> controller:string -> addr:int -> unit
val note : t -> cycle:int -> controller:string -> ?addr:int -> text:string -> unit -> unit

(** {2 Rendering} *)

val format_event : event -> string
(** One line, no trailing newline, e.g.
    ["@    482 xg.link          0x3   send xg.link_end -> accel.link_end: Invalidate 0x3"]. *)

val pp_event : Format.formatter -> event -> unit

val dump : ?addr:int -> ?last:int -> t -> string
(** Human-readable rendering of the held events, oldest first.  [addr]
    restricts to one block (as {!events_for}); [last] keeps only the final
    [n] matching events.  Empty string when nothing matches. *)
