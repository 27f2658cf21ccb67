(** Coherence block-size translation (paper §2.5).

    "Crossing Guard, along with translating between coherence protocols, may
    also translate between coherence block sizes.  If the accelerator uses a
    larger block size than the host, Crossing Guard can merge requests and
    responses."

    This adapter sits between an accelerator that addresses large lines
    ([ratio] host blocks per accelerator line) and a host-granularity backing
    interface shaped like the XG interface's essentials:

    - on an accelerator Get, it requests every component host block and
      forwards the merged line once all have arrived;
    - on an accelerator writeback, it splits the line back into component
      blocks;
    - on a host-side invalidation of any component block, it invalidates the
      whole accelerator line and splits the returned data.

    Data for an accelerator line is a [Data.t array] of the component host
    blocks.  The traffic amplification this trades for (every accelerator
    miss costs [ratio] host transactions) is measured by experiment E8. *)

type grant = Merged_s of Data.t array | Merged_e of Data.t array | Merged_m of Data.t array

(** Host-granularity backing store operations the adapter needs. *)
type backing = {
  get : Addr.t -> excl:bool -> on_grant:(Data.t -> unit) -> unit;
  put : Addr.t -> Data.t -> unit;
}

type t

val create : engine:Xguard_sim.Engine.t -> ratio:int -> backing:backing -> unit -> t
(** [ratio] host blocks per accelerator line; must be a power of two >= 1. *)

val line_of_host_block : t -> Addr.t -> int
(** The accelerator line index covering a host block. *)

val get : t -> line:int -> excl:bool -> on_grant:(grant -> unit) -> unit
(** Fetch all component blocks and deliver the merged grant: [Merged_e] for
    an exclusive fetch (clean until the accelerator writes), [Merged_s]
    otherwise.  [Merged_m] is reserved for backings that report dirtiness. *)

val put : t -> line:int -> Data.t array -> unit
(** Split a written-back accelerator line into component host writebacks.
    @raise Invalid_argument if the array length is not [ratio]. *)

val host_transactions : t -> int
(** Host-granularity operations issued so far — the amplification metric. *)

val open_merges : t -> int
