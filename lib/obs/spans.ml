module Histogram = Xguard_stats.Histogram
module Table = Xguard_stats.Table

type txn = Obs.txn = Get_s | Get_m | Put_s | Put_e | Put_m | Inv | Load | Store

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
let seg_name_of_index i = seg_names.(i)

type recorder = Obs.spans

let create ?(timeline = false) ?(timeline_cap = 1_000_000) ?(sample_cap = 100_000) () =
  {
    Obs.next_id = 0;
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

let with_armed r f = Obs.with_ctx { (Obs.get ()) with Obs.spans = Some r } f

let fresh_id (r : recorder) =
  r.next_id <- r.next_id + 1;
  r.next_id

let grow a len =
  let cap = Array.length a in
  if len < cap then a
  else begin
    let a' = Array.make (max 1024 (cap * 2)) 0 in
    Array.blit a 0 a' 0 cap;
    a'
  end

let tl_push (r : recorder) ~seg ~txn ~span ~addr ~ts ~dur =
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

let record (r : recorder) seg txn ~span ~addr ~ts ~dur =
  let s = seg_index seg and x = txn_index txn in
  Histogram.observe r.hists.(s).(x) dur;
  if r.timeline then tl_push r ~seg:s ~txn:x ~span ~addr ~ts ~dur

(* -- crossing lifecycle ---------------------------------------------------- *)

(* Once the accel-side response has landed, a still-settling writeback moves
   to [host_puts]; anything else simply retires. *)
let retire_or_park (r : recorder) addr (e : Obs.entry) =
  Hashtbl.remove r.crossings addr;
  if e.host_open then begin
    if Hashtbl.mem r.host_puts addr then begin
      Hashtbl.remove r.host_puts addr;
      r.replaced <- r.replaced + 1
    end;
    Hashtbl.replace r.host_puts addr e
  end

let xreq_open (r : recorder) txn ~addr ~now =
  if Hashtbl.mem r.crossings addr then begin
    (* Stale entry: the previous crossing on this block never retired
       (possible under faults / chaos accel).  Replace, and count it. *)
    Hashtbl.remove r.crossings addr;
    r.replaced <- r.replaced + 1
  end;
  Hashtbl.replace r.crossings addr
    {
      Obs.id = fresh_id r;
      e_txn = txn;
      resp_open = true;
      host_open = false;
      decided = false;
      m_req = now;
      m_xg = -1;
      m_resp = -1;
    }

let xreq_delivered (r : recorder) ~addr ~now =
  match Hashtbl.find_opt r.crossings addr with
  | Some e when e.m_xg < 0 ->
      e.m_xg <- now;
      record r Link_req e.e_txn ~span:e.id ~addr ~ts:e.m_req ~dur:(now - e.m_req)
  | _ -> ()

let xg_decided (r : recorder) ~addr ~now =
  match Hashtbl.find_opt r.crossings addr with
  | Some e when e.m_xg >= 0 && not e.decided ->
      e.decided <- true;
      record r Xg_decide e.e_txn ~span:e.id ~addr ~ts:e.m_xg ~dur:(now - e.m_xg)
  | _ -> ()

let resp_sent (r : recorder) ~addr ~now =
  match Hashtbl.find_opt r.crossings addr with
  | Some e when e.m_resp < 0 -> e.m_resp <- now
  | _ -> ()

let resp_delivered (r : recorder) ~addr ~now =
  match Hashtbl.find_opt r.crossings addr with
  | Some e when e.resp_open ->
      if e.m_resp >= 0 then
        record r Link_resp e.e_txn ~span:e.id ~addr ~ts:e.m_resp ~dur:(now - e.m_resp);
      e.resp_open <- false;
      retire_or_park r addr e
  | _ -> ()

let host_put_issued (r : recorder) ~addr =
  match Hashtbl.find_opt r.crossings addr with
  | Some e -> e.host_open <- true
  | None -> ()

let put_settled (r : recorder) ~addr =
  if Hashtbl.mem r.host_puts addr then Hashtbl.remove r.host_puts addr
  else
    match Hashtbl.find_opt r.crossings addr with
    | Some e -> e.host_open <- false (* settle beat the accel ack; retire there *)
    | None -> ()

let lookup (r : recorder) ~addr =
  match Hashtbl.find_opt r.crossings addr with
  | Some e -> Some (e.id, e.e_txn)
  | None -> None

let lookup_put (r : recorder) ~addr =
  match Hashtbl.find_opt r.host_puts addr with
  | Some e -> Some (e.id, e.e_txn)
  | None -> (
      (* Not yet parked: the settle is racing the accel ack. *)
      match Hashtbl.find_opt r.crossings addr with
      | Some e when e.host_open -> Some (e.id, e.e_txn)
      | _ -> None)

(* -- host-port segments ------------------------------------------------------ *)

(* One host-port segment, attributed to the crossing open on [addr] — the
   still-settling writeback's when [put] — or to span 0 and [txn] when none
   is. *)
let host_segment r seg ?(put = false) ~addr ~born ~now ~txn () =
  let span, txn =
    match (if put then lookup_put else lookup) r ~addr with
    | Some found -> found
    | None -> (0, txn)
  in
  record r seg txn ~span ~addr ~ts:born ~dur:(now - born)

let host_put_done r ~addr ~born ~now ~notify_core =
  (match lookup_put r ~addr with
  | Some (span, txn) -> record r Host_writeback txn ~span ~addr ~ts:born ~dur:(now - born)
  | None ->
      (* Port-initiated relinquishment (or a quarantine hand-back): no
         crossing to attach to, so it gets its own span. *)
      record r Host_relinquish Inv ~span:(fresh_id r) ~addr ~ts:born ~dur:(now - born));
  if notify_core then put_settled r ~addr

(* -- invalidate lifecycle -------------------------------------------------- *)

let inv_open (r : recorder) ~addr ~now =
  if Hashtbl.mem r.invs addr then begin
    Hashtbl.remove r.invs addr;
    r.replaced <- r.replaced + 1
  end;
  Hashtbl.replace r.invs addr { Obs.inv_id = fresh_id r; inv_sent = now }

let inv_closed (r : recorder) ~addr ~now =
  match Hashtbl.find_opt r.invs addr with
  | Some e ->
      Hashtbl.remove r.invs addr;
      record r Inv_roundtrip Inv ~span:e.inv_id ~addr ~ts:e.inv_sent ~dur:(now - e.inv_sent)
  | None -> ()

let inv_instant (r : recorder) seg ~addr ~now =
  let span = match Hashtbl.find_opt r.invs addr with Some e -> e.inv_id | None -> 0 in
  record r seg Inv ~span ~addr ~ts:now ~dur:0

let inv_race r ~addr ~now = inv_instant r Inv_race ~addr ~now
let inv_timeout r ~addr ~now = inv_instant r Inv_timeout ~addr ~now

(* -- time-series sampler --------------------------------------------------- *)

let add_gauge (r : recorder) ~name f = r.gauges <- r.gauges @ [ (name, f) ]
let reset_gauges (r : recorder) = r.gauges <- []

(* The metrics layer snapshots the same gauge registry instead of forcing
   every registration site to register twice. *)
let gauges (r : recorder) = r.gauges

(* Gauges are re-read from the registration list at every tick: drivers keep
   registering (sequencers are created after [System.build] installs the
   sampler), and late registrations must appear in subsequent snapshots. *)
let sample_gauges (r : recorder) ~now =
  match r.gauges with
  | [] -> ()
  | gauges ->
      if r.sample_count >= r.sample_cap then r.sample_dropped <- r.sample_dropped + 1
      else begin
        r.samples <- (now, Array.of_list (List.map (fun (n, f) -> (n, f ())) gauges)) :: r.samples;
        r.sample_count <- r.sample_count + 1
      end

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

let summary (r : recorder) =
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

let hist (r : recorder) ~seg ~txn = r.hists.(seg).(txn)

(* -- timeline access ------------------------------------------------------- *)

let timeline_events (r : recorder) =
  Array.init r.tl_len (fun i ->
      (r.tl_seg.(i), r.tl_txn.(i), r.tl_span.(i), r.tl_addr.(i), r.tl_ts.(i), r.tl_dur.(i)))

let timeline_dropped (r : recorder) = r.tl_dropped

let sample_series (r : recorder) = List.rev r.samples
