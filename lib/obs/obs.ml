(* The observer context: one record per domain holding whatever is armed on
   it — the trace ring, the span recorder and the metrics recorder (with its
   watchdog) — behind one [Domain.DLS] key.  Hook sites resolve it once
   ([get], or [trace]/[spans]/[metrics] for one slot) and hand the hook the
   recorder it needs, so an unarmed hook costs the load of [armed_ctxs].
   Arming sets slots and restores the previous context on exit, so it nests
   and is per-domain.  The recorder records live here, below {!Spans} and
   {!Metrics} (which own every function over them), so the context can hold
   them. *)

module Histogram = Xguard_stats.Histogram
module Counter = Xguard_stats.Counter
module Trace = Xguard_trace.Trace

(* ---- the span recorder ([Spans.recorder]) ---- *)

type txn = Get_s | Get_m | Put_s | Put_e | Put_m | Inv | Load | Store

(* One open accelerator crossing, keyed by block address.  [m_*] are the
   send/delivery timestamps the link hooks fill in; [-1] means "not yet".
   The entry retires when the accel response has been delivered and (for
   host-forwarded writebacks) the host side has settled. *)
type entry = {
  id : int;
  e_txn : txn;
  mutable resp_open : bool;
  mutable host_open : bool;
  mutable decided : bool;
  mutable m_req : int;
  mutable m_xg : int;
  mutable m_resp : int;
}

type inv_entry = { inv_id : int; inv_sent : int }

type spans = {
  mutable next_id : int;
  hists : Histogram.t array array; (* seg x txn *)
  crossings : (int, entry) Hashtbl.t;
  (* Writebacks whose accel ack was delivered but whose host-side settle is
     still pending.  Kept apart from [crossings] because the accelerator may
     legitimately re-request the same block (a GET stalled behind the put)
     before the host settles, and that new crossing must not evict the
     put's attribution state. *)
  host_puts : (int, entry) Hashtbl.t;
  invs : (int, inv_entry) Hashtbl.t;
  mutable replaced : int;
  (* timeline (Perfetto) buffer: parallel growable arrays *)
  timeline : bool;
  timeline_cap : int;
  mutable tl_len : int;
  mutable tl_dropped : int;
  mutable tl_seg : int array;
  mutable tl_txn : int array;
  mutable tl_span : int array;
  mutable tl_addr : int array;
  mutable tl_ts : int array;
  mutable tl_dur : int array;
  (* time-series sampler *)
  sample_cap : int;
  mutable gauges : (string * (unit -> int)) list; (* registration order *)
  mutable samples : (int * (string * int) array) list; (* newest first *)
  mutable sample_count : int;
  mutable sample_dropped : int;
}

(* ---- the metrics recorder ([Metrics.recorder]) ---- *)

type sample = {
  m_ts : int;
  m_counters : (string * int) array;  (** nonzero deltas, source order *)
  m_gauges : (string * int) array;  (** instantaneous values, registration order *)
  m_quants : (string * string * int * int * int * int) array;
      (** (segment, txn, n, p50, p95, p99), canonical cell order *)
}

(* One counter of a source, resolved once: its live handle, its full
   ["label.name"], and the recorder's previous-tick value cell for that name
   (shared by every source that renders the same name). *)
type tap = { t_counter : Counter.t; t_name : string; t_prev : int ref }

(* A registered stats group and the taps of the counters it had enlisted by
   the last tick: counters never leave a group, so a tick resolves only the
   ones enlisted since ([Group.count] beyond the taps it has). *)
type source = { s_label : string; s_group : Counter.Group.t; mutable s_taps : tap array }

type quant = string * string * int * int * int * int

(* The span recorder's per-(segment, txn) quantiles as the last tick saw
   them.  A cell's histogram changes only through [observe], which always
   raises its count, so a tick recomputes just the cells whose count moved
   and reuses its previous output while none did. *)
type quants = {
  q_spans : spans;
  q_hists : Histogram.t array;  (** its cells, canonical (segment, txn) order *)
  q_cells : quant array;  (** last computed; count 0 until the first sample *)
  mutable q_out : quant array;  (** nonempty cells, as of the last tick *)
}

(* One latency metric of one guard: open transactions by block address
   (their start timestamps), and the histogram, made at the first close. *)
type lane = {
  l_metric : string;
  l_open : (int, int) Hashtbl.t;
  mutable l_hist : Histogram.t option;
}

(* A guard's lanes, found by its label once per hook. *)
type series = { sr_guard : string; e2e : lane; inv : lane }

type metrics = {
  mutable sources : source list;  (** registration order *)
  mutable extra_gauges : (string * (unit -> int)) list;
  cells : (string, int ref) Hashtbl.t;
      (** full counter name -> previous-tick value; survives [reset_sources] *)
  (* [Spans.gauges sr @ extra_gauges], rebuilt when either list changes *)
  mutable g_spans : (string * (unit -> int)) list;
  mutable g_extra : (string * (unit -> int)) list;
  mutable g_all : (string * (unit -> int)) list;
  mutable quants : quants option;  (** for the context's span recorder *)
  mutable series : series list;  (** one per guard label seen *)
  mutable m_replaced : int;
  watchdog : Watchdog.t option;
  mutable wd_events : Watchdog.event list;  (** newest first *)
  mutable avails : (string * int * int) list;  (** newest first *)
  m_sample_cap : int;
  mutable m_samples : sample list;  (** newest first *)
  mutable m_sample_count : int;
  mutable m_dropped : int;
}

(* ---- the context ---- *)

type t = { trace : Trace.t option; spans : spans option; metrics : metrics option }

let none = { trace = None; spans = None; metrics = None }

(* How many contexts that hold a recorder are installed, over all domains:
   counted up before an armed [with_ctx] installs and down once it has
   restored, so whenever nothing is armed an unarmed hook reads this and not
   the key.  A domain that arms counts itself before installing, so its own
   reads always see it. *)
let armed_ctxs = Atomic.make 0

let armed_contexts () = Atomic.get armed_ctxs

let key : t Domain.DLS.key = Domain.DLS.new_key (fun () -> none)

let get () = if Atomic.get armed_ctxs > 0 then Domain.DLS.get key else none
let trace () = if Atomic.get armed_ctxs > 0 then (Domain.DLS.get key).trace else None
let spans () = if Atomic.get armed_ctxs > 0 then (Domain.DLS.get key).spans else None
let metrics () = if Atomic.get armed_ctxs > 0 then (Domain.DLS.get key).metrics else None

(* Whether [o] holds any recorder, and whether a sampler has anything to
   sample in it.  (Matched, not compared: a polymorphic comparison could walk
   into a recorder's closures.) *)
let armed = function { trace = None; spans = None; metrics = None } -> false | _ -> true
let sampled = function { spans = None; metrics = None; _ } -> false | _ -> true

let with_ctx c f =
  let counted = armed c in
  if counted then Atomic.incr armed_ctxs;
  let prev = Domain.DLS.get key in
  Domain.DLS.set key c;
  Fun.protect
    ~finally:(fun () ->
      Domain.DLS.set key prev;
      if counted then Atomic.decr armed_ctxs)
    f

let with_trace tr f = with_ctx { (get ()) with trace = Some tr } f
