(** Named monotonic counters.

    Counters are the unit of bookkeeping for every simulated component: message
    counts, bytes moved, protocol events, guarantee violations.  They live in a
    {!Group} so a component can dump all of its statistics by name at the end
    of a run. *)

type t

val create : string -> t
(** A free-standing counter (not attached to any group). *)

val name : t -> string
val incr : t -> unit
val add : t -> int -> unit
val get : t -> int
val reset : t -> unit

(** An ordered collection of counters, keyed by name.  Asking for the same name
    twice returns the same counter, so call sites can be written without
    plumbing counter handles around. *)
module Group : sig
  type counter = t
  type t

  type id
  (** A dense handle for a counter name of an adopted {!vocab}.  Hot paths
      adopt their whole vocabulary once at component creation and then
      record via {!incr_id}/{!add_id} — no string building, no hashing per
      event. *)

  val create : string -> t
  val name : t -> string

  val counter : t -> string -> counter
  (** [counter g name] finds or creates the counter [name] in [g]. *)

  type vocab
  (** A shared, read-only vocabulary: an array of names hashed once into a
      name -> index table.  Build one per component kind at module
      initialisation (eagerly, never [lazy]: groups on several domains read
      it at once) and let every instance's group {!adopt} it. *)

  val vocab : string array -> vocab
  (** [vocab names] indexes [names]; equal names share one index. *)

  val adopt : t -> vocab -> id array
  (** [adopt g v] registers every name of [v] in [g] as one block of fresh
      ids, without hashing the names again, and returns the id of each
      position of the array [v] was built from (equal names get one id);
      ids are per-group.  Adopting alone makes no counter observable:
      {!counter} and {!get} by name find the block's ids, and a counter
      appears in {!to_list} only once first touched (by any path), in
      first-touch order — so reports stay byte-identical to the string-keyed
      path even for vocabulary that never fires.  [g] must not already know
      any name of [v] ([Invalid_argument] otherwise); a group that has never
      named a counter trivially satisfies this.  Adopting allocates no
      counter (each is made on its first touch), and into a fresh group it
      returns an array shared with [v]: read it, never write it. *)

  val incr_id : t -> id -> unit
  (** Allocation-free equivalent of [incr g name] for an adopted name. *)

  val add_id : t -> id -> int -> unit
  val get_id : t -> id -> int

  val incr : t -> string -> unit
  val add : t -> string -> int -> unit
  val get : t -> string -> int
  (** [get g name] is 0 when the counter was never touched. *)

  val to_list : t -> (string * int) list
  (** Counters in creation order. *)

  val count : t -> int
  (** [List.length (to_list g)], in O(1).  Counters never leave a group
      ({!reset_all} only zeroes them), so a reader that remembers [count g]
      can later visit exactly the counters that joined {!to_list} since,
      with {!nth}. *)

  val nth : t -> int -> counter
  (** [nth g i] is the [i]-th counter of {!to_list}, for [0 <= i < count g]
      ([Invalid_argument] otherwise): a live handle, read with {!get}. *)

  val reset_all : t -> unit
  val pp : Format.formatter -> t -> unit
end
