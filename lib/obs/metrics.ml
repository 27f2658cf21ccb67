module Histogram = Xguard_stats.Histogram
module Counter = Xguard_stats.Counter
module Group = Counter.Group

(* Streaming run telemetry, built on the same bones as {!Spans}: a recorder
   armed in the domain's observer context and a pure associative summary
   merge, so campaign shards fold byte-identically in job order.

   Each sampler tick snapshots three things into one sample: the nonzero
   counter deltas since the previous tick (every registered stats group,
   flattened under its label), the instantaneous gauge values (the span
   layer's gauge registry plus metrics-only extras such as per-port
   completion counts), and the cumulative per-(segment x txn) span histogram
   quantiles.  The watchdog judges exactly that snapshot, so anomaly verdicts
   are as deterministic as the stream itself.

   Arming metrics always arms the span layer too ([Campaign.observe] does
   it): the per-tick quantiles read the context's span recorder. *)

type sample = Obs.sample = {
  m_ts : int;
  m_counters : (string * int) array;  (** nonzero deltas, source order *)
  m_gauges : (string * int) array;  (** instantaneous values, registration order *)
  m_quants : (string * string * int * int * int * int) array;
      (** (segment, txn, n, p50, p95, p99), canonical cell order *)
}

type recorder = Obs.metrics

let no_quant = ("", "", 0, 0, 0, 0)

let create ?watchdog ?(sample_cap = 100_000) () =
  {
    Obs.sources = [];
    extra_gauges = [];
    cells = Hashtbl.create 128;
    g_spans = [];
    g_extra = [];
    g_all = [];
    quants = None;
    series = [];
    m_replaced = 0;
    watchdog = Option.map Watchdog.create watchdog;
    wd_events = [];
    avails = [];
    m_sample_cap = sample_cap;
    m_samples = [];
    m_sample_count = 0;
    m_dropped = 0;
  }

let with_armed r f = Obs.with_ctx { (Obs.get ()) with Obs.metrics = Some r } f

(* -- sources ---------------------------------------------------------------- *)

let reset_sources (r : recorder) =
  r.sources <- [];
  r.extra_gauges <- []

let add_group (r : recorder) ~name g =
  r.sources <- r.sources @ [ { Obs.s_label = name; s_group = g; s_taps = [||] } ]

let add_gauge (r : recorder) ~name f = r.extra_gauges <- r.extra_gauges @ [ (name, f) ]

let watchdog_armed (r : recorder) = match r.watchdog with Some _ -> true | None -> false

let set_watchdog_reporter (r : recorder) f =
  match r.watchdog with Some w -> Watchdog.set_reporter w f | None -> ()

(* -- per-guard latency hooks ------------------------------------------------ *)

let lane metric = { Obs.l_metric = metric; l_open = Hashtbl.create 16; l_hist = None }

let rec series_in (r : recorder) guard = function
  | (s : Obs.series) :: rest -> if String.equal s.sr_guard guard then s else series_in r guard rest
  | [] ->
      let s = { Obs.sr_guard = guard; e2e = lane "xg.e2e"; inv = lane "inv.roundtrip" } in
      r.series <- s :: r.series;
      s

let series_for (r : recorder) guard = series_in r guard r.series

let open_in (r : recorder) (l : Obs.lane) ~addr ~now =
  if Hashtbl.mem l.l_open addr then begin
    Hashtbl.remove l.l_open addr;
    r.m_replaced <- r.m_replaced + 1
  end;
  Hashtbl.replace l.l_open addr now

let close_in (s : Obs.series) (l : Obs.lane) ~addr ~now =
  match Hashtbl.find_opt l.l_open addr with
  | None -> ()
  | Some t0 ->
      Hashtbl.remove l.l_open addr;
      let h =
        match l.l_hist with
        | Some h -> h
        | None ->
            let h = Histogram.create (s.sr_guard ^ "." ^ l.l_metric) in
            l.l_hist <- Some h;
            h
      in
      Histogram.observe h (now - t0)

let e2e_open r ~guard ~addr ~now = open_in r (series_for r guard).e2e ~addr ~now

let e2e_close r ~guard ~addr ~now =
  let s = series_for r guard in
  close_in s s.e2e ~addr ~now

let inv_open r ~guard ~addr ~now = open_in r (series_for r guard).inv ~addr ~now

let inv_close r ~guard ~addr ~now =
  let s = series_for r guard in
  close_in s s.inv ~addr ~now

(* -- availability (recorded once post-run) ------------------------------------ *)

let note_avail (r : recorder) ~guard ~down ~now = r.avails <- (guard, down, now) :: r.avails

(* -- sampler ----------------------------------------------------------------- *)

let tap (r : recorder) (s : Obs.source) c =
  let name = s.s_label ^ "." ^ Counter.name c in
  let prev =
    match Hashtbl.find_opt r.cells name with
    | Some p -> p
    | None ->
        let p = ref 0 in
        Hashtbl.add r.cells name p;
        p
  in
  { Obs.t_counter = c; t_name = name; t_prev = prev }

(* Resolve the counters [s]'s group enlisted since the last tick. *)
let catch_up r (s : Obs.source) =
  let seen = Array.length s.s_taps in
  let n = Group.count s.s_group in
  if n > seen then
    s.s_taps <-
      Array.append s.s_taps
        (Array.init (n - seen) (fun k -> tap r s (Group.nth s.s_group (seen + k))))

(* Nonzero deltas since the previous tick, source order then creation order.
   Taps sharing a cell see each other's update in that order, exactly as one
   name-keyed table would. *)
let counter_deltas (r : recorder) =
  let acc = ref [] in
  List.iter
    (fun (s : Obs.source) ->
      Array.iter
        (fun (tp : Obs.tap) ->
          let v = Counter.get tp.t_counter and p = !(tp.t_prev) in
          tp.t_prev := v;
          if v <> p then acc := (tp.t_name, v - p) :: !acc)
        s.s_taps)
    r.sources;
  List.rev !acc

let gauge_sources (r : recorder) sr =
  let spans = match sr with Some sr -> Spans.gauges sr | None -> [] in
  (* Every registration builds a new list, so physical identity tells
     whether either registry changed since the last tick. *)
  if spans != r.g_spans || r.extra_gauges != r.g_extra then begin
    r.g_spans <- spans;
    r.g_extra <- r.extra_gauges;
    r.g_all <- spans @ r.extra_gauges
  end;
  r.g_all

let quants_of sr =
  let cells = Spans.seg_count * Spans.txn_count in
  {
    Obs.q_spans = sr;
    q_hists =
      Array.init cells (fun i ->
          Spans.hist sr ~seg:(i / Spans.txn_count) ~txn:(i mod Spans.txn_count));
    q_cells = Array.make cells no_quant;
    q_out = [||];
  }

(* Per-(segment, txn) quantiles of the context's span recorder in canonical
   cell order, cells without samples omitted. *)
let quantiles (r : recorder) = function
  | None -> [||]
  | Some sr ->
      let q =
        match r.quants with
        | Some q when q.q_spans == sr -> q
        | _ ->
            let q = quants_of sr in
            r.quants <- Some q;
            q
      in
      let moved = ref false and live = ref 0 in
      for i = 0 to Array.length q.q_hists - 1 do
        let h = q.q_hists.(i) in
        let n = Histogram.count h in
        let _, _, n0, _, _, _ = q.q_cells.(i) in
        if n <> n0 then begin
          moved := true;
          q.q_cells.(i) <-
            ( Spans.seg_name_of_index (i / Spans.txn_count),
              Spans.txn_name_of_index (i mod Spans.txn_count),
              n,
              Histogram.percentile h 0.5,
              Histogram.percentile h 0.95,
              Histogram.percentile h 0.99 )
        end;
        if n > 0 then incr live
      done;
      if !moved then begin
        let out = Array.make !live no_quant and k = ref 0 in
        Array.iter
          (fun ((_, _, n, _, _, _) as c) ->
            if n > 0 then begin
              out.(!k) <- c;
              incr k
            end)
          q.q_cells;
        q.q_out <- out
      end;
      q.q_out

let take_sample (r : recorder) sr ~now =
  List.iter (catch_up r) r.sources;
  match
    (List.exists (fun (s : Obs.source) -> Array.length s.s_taps > 0) r.sources, gauge_sources r sr)
  with
  | false, [] -> ()
  | _, sources -> (
      let deltas = counter_deltas r in
      let gauges = List.map (fun (n, f) -> (n, f ())) sources in
      let quants = quantiles r sr in
      if r.m_sample_count >= r.m_sample_cap then r.m_dropped <- r.m_dropped + 1
      else begin
        r.m_samples <-
          {
            m_ts = now;
            m_counters = Array.of_list deltas;
            m_gauges = Array.of_list gauges;
            m_quants = quants;
          }
          :: r.m_samples;
        r.m_sample_count <- r.m_sample_count + 1
      end;
      match r.watchdog with
      | None -> ()
      | Some w ->
          let evs = Watchdog.observe w ~now ~deltas ~gauges in
          r.wd_events <- List.rev_append evs r.wd_events)

(* The one observer sample: the span gauges first, then the metrics sample
   and its watchdog verdicts. *)
let tick (o : Obs.t) ~now =
  (match o.spans with Some sr -> Spans.sample_gauges sr ~now | None -> ());
  match o.metrics with Some r -> take_sample r o.spans ~now | None -> ()

(* -- summaries ---------------------------------------------------------------- *)

module Summary = struct
  type block = {
    b_label : string;
    b_samples : sample list;  (** oldest first *)
    b_events : Watchdog.event list;  (** oldest first *)
    b_avails : (string * int * int) list;  (** noting order *)
  }

  type t = {
    blocks : block list;  (** job order *)
    hists : ((string * string) * Histogram.t) list;  (** sorted by key *)
    s_replaced : int;
    s_dropped : int;
  }

  let empty = { blocks = []; hists = []; s_replaced = 0; s_dropped = 0 }

  let is_empty t =
    (match (t.blocks, t.hists) with [], [] -> true | _ -> false)
    && t.s_replaced = 0 && t.s_dropped = 0

  let blocks t = t.blocks
  let hists t = t.hists
  let replaced t = t.s_replaced
  let dropped t = t.s_dropped
  let samples t = List.fold_left (fun a b -> a + List.length b.b_samples) 0 t.blocks
  let avails t = List.concat_map (fun b -> b.b_avails) t.blocks

  let events t =
    List.concat_map (fun b -> List.map (fun e -> (b.b_label, e)) b.b_events) t.blocks

  (* Trip totals per rule, rule-table order, zero rules omitted. *)
  let trip_counts t =
    let counts = Array.make (Array.length Watchdog.rules) 0 in
    List.iter
      (fun b ->
        List.iter
          (fun (e : Watchdog.event) ->
            if e.w_event = "Trip" then
              Array.iteri
                (fun i r -> if r = e.w_rule then counts.(i) <- counts.(i) + 1)
                Watchdog.rules)
          b.b_events)
      t.blocks;
    List.filteri (fun i _ -> counts.(i) > 0)
      (Array.to_list (Array.mapi (fun i r -> (r, counts.(i))) Watchdog.rules))

  (* Sorted-assoc merge-join on (guard, metric): associative and
     order-canonical, like the span summary merge. *)
  let merge_hists a b =
    let rec go xs ys =
      match (xs, ys) with
      | [], r | r, [] -> r
      | ((ka, ha) as ca) :: xs', ((kb, hb) as cb) :: ys' ->
          if ka = kb then (ka, Histogram.merge ha hb) :: go xs' ys'
          else if ka < kb then ca :: go xs' ys
          else cb :: go xs ys'
    in
    go a b

  let merge a b =
    {
      blocks = a.blocks @ b.blocks;
      hists = merge_hists a.hists b.hists;
      s_replaced = a.s_replaced + b.s_replaced;
      s_dropped = a.s_dropped + b.s_dropped;
    }
end

let summary ~label (r : recorder) =
  let hists =
    List.concat_map
      (fun (s : Obs.series) ->
        List.filter_map
          (fun (l : Obs.lane) -> Option.map (fun h -> ((s.sr_guard, l.l_metric), h)) l.l_hist)
          [ s.e2e; s.inv ])
      r.series
    |> List.sort (fun (a, _) (b, _) -> compare a b)
  in
  {
    Summary.blocks =
      [
        {
          Summary.b_label = label;
          b_samples = List.rev r.m_samples;
          b_events = List.rev r.wd_events;
          b_avails = List.rev r.avails;
        };
      ];
    hists;
    s_replaced = r.m_replaced;
    s_dropped = r.m_dropped;
  }

(* -- JSONL stream ------------------------------------------------------------- *)

let dump_fields h =
  let pairs =
    Histogram.buckets h
    |> List.map (fun (lo, _, c) -> Printf.sprintf "[%d,%d]" lo c)
  in
  Printf.sprintf "\"count\":%d,\"sum\":%d,\"min\":%d,\"max\":%d,\"buckets\":[%s]"
    (Histogram.count h) (Histogram.sum h)
    (Histogram.min_value h) (Histogram.max_value h)
    (String.concat "," pairs)

let kv_obj pairs =
  "{"
  ^ String.concat ","
      (List.map (fun (n, v) -> Printf.sprintf "%s:%d" (Json.quote n) v) pairs)
  ^ "}"

let write_verdict oc (v : Slo.verdict) =
  Printf.fprintf oc
    "{\"t\":\"slo\",\"objective\":%s,\"scope\":%s,\"measured\":%s,\"pass\":%b,\"detail\":%s}\n"
    (Json.quote v.Slo.v_objective) (Json.quote v.Slo.v_scope)
    (Json.quote v.Slo.v_measured) v.Slo.v_pass (Json.quote v.Slo.v_detail)

let write_jsonl oc ~period ~span_cells ~verdicts (t : Summary.t) =
  Printf.fprintf oc
    "{\"schema\":\"xguard-metrics-v1\",\"period\":%d,\"jobs\":%d,\"replaced\":%d,\"dropped\":%d}\n"
    period
    (List.length t.Summary.blocks)
    (Summary.replaced t) (Summary.dropped t);
  List.iter
    (fun (b : Summary.block) ->
      let job = Json.quote b.Summary.b_label in
      Printf.fprintf oc "{\"t\":\"job\",\"job\":%s,\"samples\":%d}\n" job
        (List.length b.Summary.b_samples);
      List.iter
        (fun s ->
          let quants =
            Array.to_list s.m_quants
            |> List.map (fun (seg, txn, n, p50, p95, p99) ->
                   Printf.sprintf "%s:[%d,%d,%d,%d]"
                     (Json.quote (seg ^ "/" ^ txn))
                     n p50 p95 p99)
          in
          Printf.fprintf oc
            "{\"t\":\"sample\",\"job\":%s,\"ts\":%d,\"counters\":%s,\"gauges\":%s,\"quantiles\":{%s}}\n"
            job s.m_ts
            (kv_obj (Array.to_list s.m_counters))
            (kv_obj (Array.to_list s.m_gauges))
            (String.concat "," quants))
        b.Summary.b_samples;
      List.iter
        (fun (e : Watchdog.event) ->
          Printf.fprintf oc
            "{\"t\":\"watchdog\",\"job\":%s,\"ts\":%d,\"rule\":%s,\"event\":%s,\"detail\":%s}\n"
            job e.Watchdog.w_ts (Json.quote e.Watchdog.w_rule)
            (Json.quote e.Watchdog.w_event)
            (Json.quote e.Watchdog.w_detail))
        b.Summary.b_events;
      List.iter
        (fun (guard, down, now) ->
          Printf.fprintf oc
            "{\"t\":\"avail\",\"job\":%s,\"guard\":%s,\"down\":%d,\"now\":%d}\n" job
            (Json.quote guard) down now)
        b.Summary.b_avails)
    t.Summary.blocks;
  List.iter
    (fun ((guard, metric), h) ->
      Printf.fprintf oc "{\"t\":\"hist\",\"guard\":%s,\"metric\":%s,%s}\n"
        (Json.quote guard) (Json.quote metric) (dump_fields h))
    t.Summary.hists;
  List.iter
    (fun (seg, txn, h) ->
      Printf.fprintf oc "{\"t\":\"shist\",\"seg\":%s,\"txn\":%s,%s}\n" (Json.quote seg)
        (Json.quote txn) (dump_fields h))
    span_cells;
  List.iter (write_verdict oc) verdicts

(* -- Prometheus-style text dump ----------------------------------------------- *)

let prom_name s =
  String.map (fun c ->
      match c with 'a' .. 'z' | 'A' .. 'Z' | '0' .. '9' | '_' -> c | _ -> '_') s

let write_prom oc ~span_cells (t : Summary.t) =
  (* Counter totals: the sum of a counter's deltas across every sample is its
     final value per job; summing across jobs gives the aggregate. *)
  let totals = Hashtbl.create 64 in
  let order = ref [] in
  List.iter
    (fun (b : Summary.block) ->
      List.iter
        (fun s ->
          Array.iter
            (fun (n, d) ->
              match Hashtbl.find_opt totals n with
              | None ->
                  order := n :: !order;
                  Hashtbl.add totals n d
              | Some v -> Hashtbl.replace totals n (v + d))
            s.m_counters)
        b.Summary.b_samples)
    t.Summary.blocks;
  output_string oc "# TYPE xguard_counter_total counter\n";
  List.iter
    (fun n ->
      Printf.fprintf oc "xguard_counter_total{name=%s} %d\n" (Json.quote n)
        (Hashtbl.find totals n))
    (List.rev !order);
  output_string oc "# TYPE xguard_latency_cycles summary\n";
  List.iter
    (fun ((guard, metric), h) ->
      let base =
        Printf.sprintf "guard=%s,metric=%s" (Json.quote guard) (Json.quote metric)
      in
      List.iter
        (fun (q, v) ->
          Printf.fprintf oc "xguard_latency_cycles{%s,quantile=\"%s\"} %d\n" base q v)
        [
          ("0.5", Histogram.percentile h 0.5);
          ("0.95", Histogram.percentile h 0.95);
          ("0.99", Histogram.percentile h 0.99);
        ];
      Printf.fprintf oc "xguard_latency_cycles_count{%s} %d\n" base (Histogram.count h);
      Printf.fprintf oc "xguard_latency_cycles_sum{%s} %d\n" base (Histogram.sum h))
    t.Summary.hists;
  output_string oc "# TYPE xguard_segment_cycles summary\n";
  List.iter
    (fun (seg, txn, h) ->
      let base =
        Printf.sprintf "segment=%s,txn=%s" (Json.quote (prom_name seg)) (Json.quote txn)
      in
      List.iter
        (fun (q, v) ->
          Printf.fprintf oc "xguard_segment_cycles{%s,quantile=\"%s\"} %d\n" base q v)
        [
          ("0.5", Histogram.percentile h 0.5);
          ("0.99", Histogram.percentile h 0.99);
        ];
      Printf.fprintf oc "xguard_segment_cycles_count{%s} %d\n" base (Histogram.count h))
    span_cells;
  let avails = Summary.avails t in
  if avails <> [] then begin
    output_string oc "# TYPE xguard_availability gauge\n";
    (* summed per guard, first-seen order *)
    let seen = Hashtbl.create 8 in
    let guards = ref [] in
    List.iter
      (fun (g, d, n) ->
        match Hashtbl.find_opt seen g with
        | None ->
            guards := g :: !guards;
            Hashtbl.add seen g (d, n)
        | Some (d0, n0) -> Hashtbl.replace seen g (d0 + d, n0 + n))
      avails;
    List.iter
      (fun g ->
        let d, n = Hashtbl.find seen g in
        Printf.fprintf oc "xguard_availability{guard=%s} %.4f\n" (Json.quote g)
          (1.0 -. (float_of_int d /. float_of_int (max 1 n))))
      (List.rev !guards)
  end

(* -- stream merging for [xguard report] ----------------------------------------- *)

module Report = struct
  type t = {
    r_streams : (string * int) list;  (** (name, sample lines), add order *)
    r_hists : ((string * string) * Histogram.t) list;  (** sorted *)
    r_cells : ((string * string) * Histogram.t) list;  (** (seg, txn), sorted *)
    r_avails : (string * int * int) list;
    r_trips : (string * int * string * string) list;  (** (rule, ts, stream, detail) *)
    r_verdicts : (string * Slo.verdict) list;  (** (stream, verdict) *)
    r_counters : (string * int) list;  (** summed deltas, first-seen order *)
    r_samples : int;
  }

  let empty =
    {
      r_streams = [];
      r_hists = [];
      r_cells = [];
      r_avails = [];
      r_trips = [];
      r_verdicts = [];
      r_counters = [];
      r_samples = 0;
    }

  let streams t = List.rev t.r_streams
  let samples t = t.r_samples
  let guard_hists t = t.r_hists
  let span_cells t = List.map (fun ((seg, txn), h) -> (seg, txn, h)) t.r_cells
  let avails t = List.rev t.r_avails
  let trips t = List.rev t.r_trips
  let verdicts t = List.rev t.r_verdicts
  let counters t = List.rev t.r_counters

  let hist_of_json name j =
    let int_field k =
      match Option.bind (Json.member k j) Json.to_int_opt with
      | Some v -> Some v
      | None -> None
    in
    match (int_field "sum", int_field "min", int_field "max", Json.member "buckets" j) with
    | Some sum, Some min_v, Some max_v, Some bs ->
        let pairs =
          List.filter_map
            (fun b ->
              match Json.to_list b with
              | [ lo; c ] -> (
                  match (Json.to_int_opt lo, Json.to_int_opt c) with
                  | Some lo, Some c -> Some (lo, c)
                  | _ -> None)
              | _ -> None)
            (Json.to_list bs)
        in
        (try Some (Histogram.of_dump ~name ~sum ~min_v ~max_v pairs)
         with Invalid_argument _ -> None)
    | _ -> None

  let add_hist assoc key h =
    let rec go = function
      | [] -> [ (key, h) ]
      | (k, h0) :: rest ->
          if k = key then (k, Histogram.merge h0 h) :: rest
          else if key < k then (key, h) :: (k, h0) :: rest
          else (k, h0) :: go rest
    in
    go assoc

  let str k j = Option.bind (Json.member k j) Json.to_string_opt
  let int k j = Option.bind (Json.member k j) Json.to_int_opt

  let add_line t ~stream j =
    match str "t" j with
    | Some "sample" ->
        let counters =
          match Json.member "counters" j with Some c -> Json.fields c | None -> []
        in
        let r_counters =
          List.fold_left
            (fun acc (n, v) ->
              match Json.to_int_opt v with
              | None -> acc
              | Some d ->
                  let rec bump = function
                    | [] -> [ (n, d) ]
                    | (n0, v0) :: rest ->
                        if n0 = n then (n0, v0 + d) :: rest else (n0, v0) :: bump rest
                  in
                  bump acc)
            t.r_counters counters
        in
        { t with r_samples = t.r_samples + 1; r_counters }
    | Some "hist" -> (
        match (str "guard" j, str "metric" j) with
        | Some guard, Some metric -> (
            match hist_of_json (guard ^ "." ^ metric) j with
            | Some h -> { t with r_hists = add_hist t.r_hists (guard, metric) h }
            | None -> t)
        | _ -> t)
    | Some "shist" -> (
        match (str "seg" j, str "txn" j) with
        | Some seg, Some txn -> (
            match hist_of_json (seg ^ "/" ^ txn) j with
            | Some h -> { t with r_cells = add_hist t.r_cells (seg, txn) h }
            | None -> t)
        | _ -> t)
    | Some "avail" -> (
        match (str "guard" j, int "down" j, int "now" j) with
        | Some g, Some d, Some n -> { t with r_avails = (g, d, n) :: t.r_avails }
        | _ -> t)
    | Some "watchdog" -> (
        match (str "rule" j, str "event" j, int "ts" j, str "detail" j) with
        | Some rule, Some "Trip", Some ts, Some detail ->
            { t with r_trips = (rule, ts, stream, detail) :: t.r_trips }
        | _ -> t)
    | Some "slo" -> (
        match (str "objective" j, str "scope" j, str "measured" j, str "detail" j) with
        | Some o, Some sc, Some m, Some d ->
            let pass =
              match Option.bind (Json.member "pass" j) Json.to_bool_opt with
              | Some b -> b
              | None -> false
            in
            {
              t with
              r_verdicts =
                ( stream,
                  {
                    Slo.v_objective = o;
                    v_scope = sc;
                    v_measured = m;
                    v_pass = pass;
                    v_detail = d;
                  } )
                :: t.r_verdicts;
            }
        | _ -> t)
    | _ -> t

  let add_stream t ~name lines =
    let start = t.r_samples in
    let schema_ok = ref false in
    let result =
      List.fold_left
        (fun acc line ->
          match acc with
          | Error _ -> acc
          | Ok t -> (
              let line = String.trim line in
              if line = "" then Ok t
              else
                match Json.of_string line with
                | Error e -> Error (Printf.sprintf "%s: %s" name e)
                | Ok j ->
                    (match str "schema" j with
                    | Some "xguard-metrics-v1" -> schema_ok := true
                    | _ -> ());
                    Ok (add_line t ~stream:name j)))
        (Ok t) lines
    in
    match result with
    | Error _ as e -> e
    | Ok t ->
        if not !schema_ok then
          Error (Printf.sprintf "%s: missing xguard-metrics-v1 schema line" name)
        else Ok { t with r_streams = (name, t.r_samples - start) :: t.r_streams }
end
