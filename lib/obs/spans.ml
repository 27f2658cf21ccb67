module Histogram = Xguard_stats.Histogram
module Table = Xguard_stats.Table
module Engine = Xguard_sim.Engine

type txn = Get_s | Get_m | Put_s | Put_e | Put_m | Inv | Load | Store

let txn_index = function
  | Get_s -> 0
  | Get_m -> 1
  | Put_s -> 2
  | Put_e -> 3
  | Put_m -> 4
  | Inv -> 5
  | Load -> 6
  | Store -> 7

let txn_names = [| "GetS"; "GetM"; "PutS"; "PutE"; "PutM"; "Inv"; "Load"; "Store" |]
let txn_count = Array.length txn_names
let txn_name t = txn_names.(txn_index t)
let txn_name_of_index i = txn_names.(i)

type seg =
  | Seq_queue
  | Seq_retry
  | Seq_e2e
  | Link_req
  | Xg_decide
  | Host_fetch
  | Host_writeback
  | Host_defer
  | Host_relinquish
  | Link_resp
  | Inv_roundtrip
  | Inv_race
  | Inv_timeout
  | Xg_stall
  | Link_retry

let seg_index = function
  | Seq_queue -> 0
  | Seq_retry -> 1
  | Seq_e2e -> 2
  | Link_req -> 3
  | Xg_decide -> 4
  | Host_fetch -> 5
  | Host_writeback -> 6
  | Host_defer -> 7
  | Host_relinquish -> 8
  | Link_resp -> 9
  | Inv_roundtrip -> 10
  | Inv_race -> 11
  | Inv_timeout -> 12
  | Xg_stall -> 13
  | Link_retry -> 14

let seg_names =
  [|
    "seq.queue";
    "seq.retry";
    "seq.e2e";
    "link.req";
    "xg.decide";
    "host.fetch";
    "host.writeback";
    "host.defer";
    "host.relinquish";
    "link.resp";
    "inv.roundtrip";
    "inv.race";
    "inv.timeout";
    "xg.stall";
    "link.retry";
  |]

let seg_count = Array.length seg_names
let seg_name s = seg_names.(seg_index s)
let seg_name_of_index i = seg_names.(i)

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

type recorder = {
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

let create ?(timeline = false) ?(timeline_cap = 1_000_000) ?(sample_cap = 100_000) () =
  {
    next_id = 0;
    hists =
      Array.init seg_count (fun s ->
          Array.init txn_count (fun x ->
              Histogram.create (seg_names.(s) ^ "/" ^ txn_names.(x))));
    crossings = Hashtbl.create 64;
    host_puts = Hashtbl.create 16;
    invs = Hashtbl.create 16;
    replaced = 0;
    timeline;
    timeline_cap;
    tl_len = 0;
    tl_dropped = 0;
    tl_seg = [||];
    tl_txn = [||];
    tl_span = [||];
    tl_addr = [||];
    tl_ts = [||];
    tl_dur = [||];
    sample_cap;
    gauges = [];
    samples = [];
    sample_count = 0;
    sample_dropped = 0;
  }

(* Arming is per-domain so each parallel-pool worker records into its own
   recorder.  NB: [on] must pattern-match, not compare — a polymorphic
   [<> None] would walk the recorder (closures inside would raise). *)
let key : recorder option Domain.DLS.key = Domain.DLS.new_key (fun () -> None)

let get () = Domain.DLS.get key

(* Under the sharded (PDES) engine, span work performed inside a domain
   window is deferred through the {!Xguard_sim.Shard} context and replayed
   by the coordinator (where the recorder is armed) at the barrier, in
   canonical (timestamp, domain, sequence) order.  [on] therefore answers
   true on a worker whose coordinator has spans armed, and every mutator
   below checks the context {e first} — even a coordinator that runs all
   domains itself (one worker) must defer, or its replay order would differ
   from the multi-worker one.  Replay happens with no context installed, so
   the deferred closures fall through to the armed recorder. *)
module Shard = Xguard_sim.Shard

let on () =
  match Domain.DLS.get key with
  | Some _ -> true
  | None -> Shard.spans_on ()

let armed () = get ()

(* Each hook below checks for a shard context itself and builds its replay
   closure only inside a window, so outside one a hook allocates no
   closure. *)
let deferred ~now f =
  match Shard.spans_ctx () with Some c -> Shard.defer c ~ts:now f | None -> f ()

let with_armed r f =
  let prev = Domain.DLS.get key in
  Domain.DLS.set key (Some r);
  Fun.protect ~finally:(fun () -> Domain.DLS.set key prev) f

let fresh_id_r r =
  r.next_id <- r.next_id + 1;
  r.next_id

(* Inside a domain window ids come from the context (salted per domain, so
   ids never collide across domains and never depend on replay order);
   otherwise from the armed recorder as always. *)
let fresh_id () =
  match Shard.spans_ctx () with
  | Some c -> Shard.fresh_span_id c
  | None -> ( match get () with None -> 0 | Some r -> fresh_id_r r)

let grow a len =
  let cap = Array.length a in
  if len < cap then a
  else begin
    let a' = Array.make (max 1024 (cap * 2)) 0 in
    Array.blit a 0 a' 0 cap;
    a'
  end

let tl_push r ~seg ~txn ~span ~addr ~ts ~dur =
  if r.tl_len >= r.timeline_cap then r.tl_dropped <- r.tl_dropped + 1
  else begin
    let n = r.tl_len in
    r.tl_seg <- grow r.tl_seg n;
    r.tl_txn <- grow r.tl_txn n;
    r.tl_span <- grow r.tl_span n;
    r.tl_addr <- grow r.tl_addr n;
    r.tl_ts <- grow r.tl_ts n;
    r.tl_dur <- grow r.tl_dur n;
    r.tl_seg.(n) <- seg;
    r.tl_txn.(n) <- txn;
    r.tl_span.(n) <- span;
    r.tl_addr.(n) <- addr;
    r.tl_ts.(n) <- ts;
    r.tl_dur.(n) <- dur;
    r.tl_len <- n + 1
  end

let record_r r seg txn ~span ~addr ~ts ~dur =
  let s = seg_index seg and x = txn_index txn in
  Histogram.observe r.hists.(s).(x) dur;
  if r.timeline then tl_push r ~seg:s ~txn:x ~span ~addr ~ts ~dur

let record_direct seg txn ~span ~addr ~ts ~dur =
  match get () with None -> () | Some r -> record_r r seg txn ~span ~addr ~ts ~dur

let record seg txn ~span ~addr ~ts ~dur =
  match Shard.spans_ctx () with
  | Some c -> Shard.defer c ~ts (fun () -> record_direct seg txn ~span ~addr ~ts ~dur)
  | None -> record_direct seg txn ~span ~addr ~ts ~dur

(* -- crossing lifecycle ---------------------------------------------------- *)

(* Once the accel-side response has landed, a still-settling writeback moves
   to [host_puts]; anything else simply retires. *)
let retire_or_park r addr e =
  Hashtbl.remove r.crossings addr;
  if e.host_open then begin
    if Hashtbl.mem r.host_puts addr then begin
      Hashtbl.remove r.host_puts addr;
      r.replaced <- r.replaced + 1
    end;
    Hashtbl.replace r.host_puts addr e
  end

let xreq_open_direct txn ~addr ~now =
  match get () with
  | None -> ()
  | Some r ->
      if Hashtbl.mem r.crossings addr then begin
        (* Stale entry: the previous crossing on this block never retired
           (possible under faults / chaos accel).  Replace, and count it. *)
        Hashtbl.remove r.crossings addr;
        r.replaced <- r.replaced + 1
      end;
      Hashtbl.replace r.crossings addr
        {
          id = fresh_id_r r;
          e_txn = txn;
          resp_open = true;
          host_open = false;
          decided = false;
          m_req = now;
          m_xg = -1;
          m_resp = -1;
        }

let xreq_open txn ~addr ~now =
  match Shard.spans_ctx () with
  | Some c -> Shard.defer c ~ts:now (fun () -> xreq_open_direct txn ~addr ~now)
  | None -> xreq_open_direct txn ~addr ~now

let xreq_delivered_direct ~addr ~now =
  match get () with
  | None -> ()
  | Some r -> (
      match Hashtbl.find_opt r.crossings addr with
      | Some e when e.m_xg < 0 ->
          e.m_xg <- now;
          record_r r Link_req e.e_txn ~span:e.id ~addr ~ts:e.m_req ~dur:(now - e.m_req)
      | _ -> ())

let xreq_delivered ~addr ~now =
  match Shard.spans_ctx () with
  | Some c -> Shard.defer c ~ts:now (fun () -> xreq_delivered_direct ~addr ~now)
  | None -> xreq_delivered_direct ~addr ~now

let xg_decided_direct ~addr ~now =
  match get () with
  | None -> ()
  | Some r -> (
      match Hashtbl.find_opt r.crossings addr with
      | Some e when e.m_xg >= 0 && not e.decided ->
          e.decided <- true;
          record_r r Xg_decide e.e_txn ~span:e.id ~addr ~ts:e.m_xg ~dur:(now - e.m_xg)
      | _ -> ())

let xg_decided ~addr ~now =
  match Shard.spans_ctx () with
  | Some c -> Shard.defer c ~ts:now (fun () -> xg_decided_direct ~addr ~now)
  | None -> xg_decided_direct ~addr ~now

let resp_sent_direct ~addr ~now =
  match get () with
  | None -> ()
  | Some r -> (
      match Hashtbl.find_opt r.crossings addr with
      | Some e when e.m_resp < 0 -> e.m_resp <- now
      | _ -> ())

let resp_sent ~addr ~now =
  match Shard.spans_ctx () with
  | Some c -> Shard.defer c ~ts:now (fun () -> resp_sent_direct ~addr ~now)
  | None -> resp_sent_direct ~addr ~now

let resp_delivered_direct ~addr ~now =
  match get () with
  | None -> ()
  | Some r -> (
      match Hashtbl.find_opt r.crossings addr with
      | Some e when e.resp_open ->
          if e.m_resp >= 0 then
            record_r r Link_resp e.e_txn ~span:e.id ~addr ~ts:e.m_resp ~dur:(now - e.m_resp);
          e.resp_open <- false;
          retire_or_park r addr e
      | _ -> ())

let resp_delivered ~addr ~now =
  match Shard.spans_ctx () with
  | Some c -> Shard.defer c ~ts:now (fun () -> resp_delivered_direct ~addr ~now)
  | None -> resp_delivered_direct ~addr ~now

let host_put_issued_direct ~addr =
  match get () with
  | None -> ()
  | Some r -> (
      match Hashtbl.find_opt r.crossings addr with
      | Some e -> e.host_open <- true
      | None -> ())

(* [now] orders the deferred op among same-window span work; the direct body
   never needed it. *)
let host_put_issued ~addr ~now =
  match Shard.spans_ctx () with
  | Some c -> Shard.defer c ~ts:now (fun () -> host_put_issued_direct ~addr)
  | None -> host_put_issued_direct ~addr

let put_settled_direct ~addr =
  match get () with
  | None -> ()
  | Some r -> (
      if Hashtbl.mem r.host_puts addr then Hashtbl.remove r.host_puts addr
      else
        match Hashtbl.find_opt r.crossings addr with
        | Some e ->
            e.host_open <- false (* settle beat the accel ack; retire there *)
        | None -> ())

let put_settled ~addr ~now =
  match Shard.spans_ctx () with
  | Some c -> Shard.defer c ~ts:now (fun () -> put_settled_direct ~addr)
  | None -> put_settled_direct ~addr

let lookup ~addr =
  match get () with
  | None -> None
  | Some r -> (
      match Hashtbl.find_opt r.crossings addr with
      | Some e -> Some (e.id, e.e_txn)
      | None -> None)

let lookup_put ~addr =
  match get () with
  | None -> None
  | Some r -> (
      match Hashtbl.find_opt r.host_puts addr with
      | Some e -> Some (e.id, e.e_txn)
      | None -> (
          (* Not yet parked: the settle is racing the accel ack. *)
          match Hashtbl.find_opt r.crossings addr with
          | Some e when e.host_open -> Some (e.id, e.e_txn)
          | _ -> None))

(* -- invalidate lifecycle -------------------------------------------------- *)

let inv_open_direct ~addr ~now =
  match get () with
  | None -> ()
  | Some r ->
      if Hashtbl.mem r.invs addr then begin
        Hashtbl.remove r.invs addr;
        r.replaced <- r.replaced + 1
      end;
      Hashtbl.replace r.invs addr { inv_id = fresh_id_r r; inv_sent = now }

let inv_open ~addr ~now =
  match Shard.spans_ctx () with
  | Some c -> Shard.defer c ~ts:now (fun () -> inv_open_direct ~addr ~now)
  | None -> inv_open_direct ~addr ~now

let inv_closed_direct ~addr ~now =
  match get () with
  | None -> ()
  | Some r -> (
      match Hashtbl.find_opt r.invs addr with
      | Some e ->
          Hashtbl.remove r.invs addr;
          record_r r Inv_roundtrip Inv ~span:e.inv_id ~addr ~ts:e.inv_sent ~dur:(now - e.inv_sent)
      | None -> ())

let inv_closed ~addr ~now =
  match Shard.spans_ctx () with
  | Some c -> Shard.defer c ~ts:now (fun () -> inv_closed_direct ~addr ~now)
  | None -> inv_closed_direct ~addr ~now

let inv_instant_direct seg ~addr ~now =
  match get () with
  | None -> ()
  | Some r ->
      let span = match Hashtbl.find_opt r.invs addr with Some e -> e.inv_id | None -> 0 in
      record_r r seg Inv ~span ~addr ~ts:now ~dur:0

let inv_instant seg ~addr ~now =
  match Shard.spans_ctx () with
  | Some c -> Shard.defer c ~ts:now (fun () -> inv_instant_direct seg ~addr ~now)
  | None -> inv_instant_direct seg ~addr ~now

let inv_race ~addr ~now = inv_instant Inv_race ~addr ~now
let inv_timeout ~addr ~now = inv_instant Inv_timeout ~addr ~now

(* -- time-series sampler --------------------------------------------------- *)

let add_gauge ~name f =
  match get () with None -> () | Some r -> r.gauges <- r.gauges @ [ (name, f) ]

let reset_gauges () =
  match get () with None -> () | Some r -> r.gauges <- []

(* The metrics layer snapshots the same gauge registry instead of forcing
   every registration site to register twice. *)
let gauges () = match get () with None -> [] | Some r -> r.gauges

(* Gauges are re-read from the registration list at every tick: drivers keep
   registering (sequencers are created after [System.build] starts the
   sampler), and late registrations must appear in subsequent snapshots. *)
let take_sample r ~now =
  match r.gauges with
  | [] -> ()
  | gauges ->
      if r.sample_count >= r.sample_cap then r.sample_dropped <- r.sample_dropped + 1
      else begin
        r.samples <- (now, Array.of_list (List.map (fun (n, f) -> (n, f ())) gauges)) :: r.samples;
        r.sample_count <- r.sample_count + 1
      end

(* Coordinator-driven sampling for the sharded engine: the per-engine
   [start_sampler] tick cannot run inside domain windows, so the PDES
   coordinator snapshots gauges at window barriers instead (workers parked,
   cross-domain reads safe). *)
let sample_now ~now = match get () with None -> () | Some r -> take_sample r ~now

let start_sampler ~engine ~period =
  match get () with
  | None -> ()
  | Some r ->
      Engine.every engine ~period ~phase:period (fun () ->
          take_sample r ~now:(Engine.now engine);
          (* The tick was already popped, so [pending] counts only other
             work: returning [false] on an idle engine lets it drain. *)
          Engine.pending engine > 0)

(* -- summaries ------------------------------------------------------------- *)

module Summary = struct
  type t = {
    cells : (int * int * Histogram.t) list; (* (seg_idx, txn_idx, hist), canonical order *)
    s_replaced : int;
    s_dropped : int;
  }

  let empty = { cells = []; s_replaced = 0; s_dropped = 0 }
  let is_empty t =
    (match t.cells with [] -> true | _ -> false) && t.s_replaced = 0 && t.s_dropped = 0
  let replaced t = t.s_replaced
  let dropped t = t.s_dropped

  let cells t =
    List.map (fun (s, x, h) -> (seg_names.(s), txn_names.(x), h)) t.cells

  (* Both inputs hold cells in ascending (seg, txn) order; a merge-join keeps
     the output canonical, making the fold associative and order-stable. *)
  let merge a b =
    let key (s, x, _) = (s * txn_count) + x in
    let rec go xs ys =
      match (xs, ys) with
      | [], r | r, [] -> r
      | ((sa, xa, ha) as ca) :: xs', ((_, _, hb) as cb) :: ys' ->
          if key ca = key cb then (sa, xa, Histogram.merge ha hb) :: go xs' ys'
          else if key ca < key cb then ca :: go xs' ys
          else cb :: go xs ys'
    in
    {
      cells = go a.cells b.cells;
      s_replaced = a.s_replaced + b.s_replaced;
      s_dropped = a.s_dropped + b.s_dropped;
    }

  let attribution_table ?(title = "Latency attribution (cycles)") t =
    match t.cells with
    | [] -> None
    | cells ->
        let tbl =
          Table.create ~title
            ~columns:[ "segment"; "txn"; "n"; "p50"; "p95"; "p99"; "max" ]
        in
        let last_seg = ref (-1) in
        List.iter
          (fun (s, x, h) ->
            if !last_seg >= 0 && s <> !last_seg then Table.add_separator tbl;
            last_seg := s;
            Table.add_row tbl
              [
                seg_names.(s);
                txn_names.(x);
                Table.cell_int (Histogram.count h);
                Table.cell_int (Histogram.percentile h 0.5);
                Table.cell_int (Histogram.percentile h 0.95);
                Table.cell_int (Histogram.percentile h 0.99);
                Table.cell_int (Histogram.max_value h);
              ])
          cells;
        Some tbl
end

let summary r =
  let cells = ref [] in
  for s = seg_count - 1 downto 0 do
    for x = txn_count - 1 downto 0 do
      if Histogram.count r.hists.(s).(x) > 0 then cells := (s, x, r.hists.(s).(x)) :: !cells
    done
  done;
  {
    Summary.cells = !cells;
    s_replaced = r.replaced;
    s_dropped = r.tl_dropped + r.sample_dropped;
  }

let hist r ~seg ~txn = r.hists.(seg).(txn)

(* -- timeline access ------------------------------------------------------- *)

let timeline_events r =
  Array.init r.tl_len (fun i ->
      (r.tl_seg.(i), r.tl_txn.(i), r.tl_span.(i), r.tl_addr.(i), r.tl_ts.(i), r.tl_dur.(i)))

let timeline_dropped r = r.tl_dropped

let sample_series r = List.rev r.samples
