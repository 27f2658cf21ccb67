module Engine = Xguard_sim.Engine
module Histogram = Xguard_stats.Histogram
module Trace = Xguard_trace.Trace
module Obs = Xguard_obs.Obs
module Spans = Xguard_obs.Spans
module Metrics = Xguard_obs.Metrics

let access_text access =
  Format.asprintf "%a" Access.pp access

let span_txn access = if Access.is_store access then Spans.Store else Spans.Load

type pending = {
  access : Access.t;
  issued_at : Engine.time;
  span : int; (* span id when recording, 0 otherwise *)
  on_complete : Data.t -> latency:int -> unit;
}

let dummy_pending =
  {
    access = Access.load (Addr.block 0);
    issued_at = 0;
    span = 0;
    on_complete = (fun _ ~latency:_ -> ());
  }

type t = {
  engine : Engine.t;
  name : string;
  port : Access.port;
  max_outstanding : int;
  retry_delay : int;
  (* Waiting to issue: a growable ring buffer.  The retry path requeues at the
     head, so both ends push in O(1) with no per-element allocation. *)
  mutable pend : pending array;
  mutable head : int;
  mutable queued : int;
  mutable in_flight : int; (* accepted by the cache, not yet done *)
  flight_addrs : Addr.t array; (* first [in_flight] entries are live *)
  mutable completed : int;
  mutable retries : int;
  latency : Histogram.t;
  mutable pump_scheduled : bool;
  (* Choice tag for pump/retry events (model checker); [Engine.no_tag] outside
     check mode.  Set to the served cache's controller id so reorderings
     against that cache's deliveries are never pruned. *)
  mutable check_tag : int;
}

let create ~engine ~name ~port ?(max_outstanding = 16) ?(retry_delay = 3) () =
  {
    engine;
    name;
    port;
    max_outstanding;
    retry_delay;
    pend = Array.make 16 dummy_pending;
    head = 0;
    queued = 0;
    in_flight = 0;
    flight_addrs = Array.make (max max_outstanding 1) (Addr.block 0);
    completed = 0;
    retries = 0;
    latency = Histogram.create (name ^ ".latency");
    pump_scheduled = false;
    check_tag = Engine.no_tag;
  }

let create ~engine ~name ~port ?max_outstanding ?retry_delay () =
  let t = create ~engine ~name ~port ?max_outstanding ?retry_delay () in
  let o = Obs.get () in
  Option.iter
    (fun sr -> Spans.add_gauge sr ~name:(name ^ ".outstanding") (fun () -> t.in_flight + t.queued))
    o.Obs.spans;
  (* The watchdog's starvation rule pairs each port's [.outstanding] gauge
     (shared with the span layer above) with a progress signal: a port that
     holds work while [.completed] freezes — and the rest of the system
     moves — is starving. *)
  Option.iter
    (fun mr -> Metrics.add_gauge mr ~name:(name ^ ".completed") (fun () -> t.completed))
    o.Obs.metrics;
  t

let name t = t.name
let outstanding t = t.in_flight + t.queued
let completed t = t.completed
let latency t = t.latency
let retries t = t.retries

let grow_pend t =
  let cap = Array.length t.pend in
  let bigger = Array.make (2 * cap) dummy_pending in
  for k = 0 to t.queued - 1 do
    bigger.(k) <- t.pend.((t.head + k) mod cap)
  done;
  t.pend <- bigger;
  t.head <- 0

let push_back t p =
  if t.queued = Array.length t.pend then grow_pend t;
  t.pend.((t.head + t.queued) mod Array.length t.pend) <- p;
  t.queued <- t.queued + 1

let push_front t p =
  if t.queued = Array.length t.pend then grow_pend t;
  let cap = Array.length t.pend in
  t.head <- (t.head + cap - 1) mod cap;
  t.pend.(t.head) <- p;
  t.queued <- t.queued + 1

let pop_front t =
  let p = t.pend.(t.head) in
  t.pend.(t.head) <- dummy_pending;
  t.head <- (t.head + 1) mod Array.length t.pend;
  t.queued <- t.queued - 1;
  p

let addr_in_flight t addr =
  let rec go i =
    i < t.in_flight && (Addr.equal t.flight_addrs.(i) addr || go (i + 1))
  in
  go 0

(* Remove one occurrence by swapping the last live entry into its slot; the
   caller decrements [in_flight] afterwards.  No-op when absent. *)
let remove_flight t addr =
  let n = t.in_flight in
  let rec go i =
    if i < n then
      if Addr.equal t.flight_addrs.(i) addr then begin
        t.flight_addrs.(i) <- t.flight_addrs.(n - 1);
        (* Clear the vacated tail slot: stale addresses past [in_flight] are
           behaviorally inert but would leak into state fingerprints. *)
        t.flight_addrs.(n - 1) <- Addr.block 0
      end
      else go (i + 1)
  in
  go 0

let rec pump t =
  if
    t.queued > 0
    && t.in_flight < t.max_outstanding
    && not (addr_in_flight t t.pend.(t.head).access.Access.addr)
  then begin
    let p = pop_front t in
    let addr = p.access.Access.addr in
    let accepted =
      t.port.Access.issue p.access ~on_done:(fun value ->
          remove_flight t addr;
          t.in_flight <- t.in_flight - 1;
          t.completed <- t.completed + 1;
          let lat = Engine.now t.engine - p.issued_at in
          Histogram.observe t.latency lat;
          let o = Obs.get () in
          (match o.Obs.spans with
          | Some sr ->
              Spans.record sr Spans.Seq_e2e (span_txn p.access) ~span:p.span
                ~addr:(Addr.to_int addr) ~ts:p.issued_at ~dur:lat
          | None -> ());
          (match o.Obs.trace with
          | Some tr ->
              Trace.note tr ~cycle:(Engine.now t.engine) ~controller:t.name
                ~addr:(Addr.to_int addr)
                ~text:(Printf.sprintf "done %s (latency %d)" (access_text p.access) lat)
                ()
          | None -> ());
          p.on_complete value ~latency:lat;
          schedule_pump t)
    in
    if accepted then begin
      t.flight_addrs.(t.in_flight) <- addr;
      t.in_flight <- t.in_flight + 1;
      let o = Obs.get () in
      (match o.Obs.spans with
      | Some sr ->
          Spans.record sr Spans.Seq_queue (span_txn p.access) ~span:p.span
            ~addr:(Addr.to_int addr) ~ts:p.issued_at
            ~dur:(Engine.now t.engine - p.issued_at)
      | None -> ());
      (match o.Obs.trace with
      | Some tr ->
          Trace.note tr ~cycle:(Engine.now t.engine) ~controller:t.name
            ~addr:(Addr.to_int addr)
            ~text:(Printf.sprintf "issue %s" (access_text p.access))
            ()
      | None -> ());
      pump t
    end
    else begin
      (* Cache rejected: requeue at the head and retry after a delay. *)
      t.retries <- t.retries + 1;
      let o = Obs.get () in
      (match o.Obs.spans with
      | Some sr ->
          Spans.record sr Spans.Seq_retry (span_txn p.access) ~span:p.span
            ~addr:(Addr.to_int addr) ~ts:(Engine.now t.engine) ~dur:t.retry_delay
      | None -> ());
      (match o.Obs.trace with
      | Some tr ->
          Trace.stall tr ~cycle:(Engine.now t.engine) ~controller:t.name
            ~addr:(Addr.to_int addr)
            ~why:(Printf.sprintf "cache rejected %s; retry in %d" (access_text p.access)
                    t.retry_delay)
      | None -> ());
      push_front t p;
      Engine.schedule t.engine ~delay:t.retry_delay ~tag:t.check_tag (fun () -> pump t)
    end
  end

and schedule_pump t =
  if not t.pump_scheduled then begin
    t.pump_scheduled <- true;
    Engine.schedule t.engine ~delay:0 ~tag:t.check_tag (fun () ->
        t.pump_scheduled <- false;
        pump t)
  end

let request t access ~on_complete =
  let span = match Obs.spans () with Some sr -> Spans.fresh_id sr | None -> 0 in
  push_back t { access; issued_at = Engine.now t.engine; span; on_complete };
  schedule_pump t

(* ---- model-checker support ---- *)

let set_check_ctrl t ctrl =
  t.check_tag <- Engine.pack_tag ~ctrl ~addr:(-1)

let check_residue t =
  let n = ref 0 in
  for i = t.in_flight to Array.length t.flight_addrs - 1 do
    if not (Addr.equal t.flight_addrs.(i) (Addr.block 0)) then incr n
  done;
  let cap = Array.length t.pend in
  for k = t.queued to cap - 1 do
    if t.pend.((t.head + k) mod cap) != dummy_pending then incr n
  done;
  !n

let check_fingerprint t buf =
  Buffer.add_string buf "seq[";
  Buffer.add_string buf t.name;
  Buffer.add_char buf ']';
  for k = 0 to t.queued - 1 do
    Buffer.add_char buf 'q';
    Access.add_text buf t.pend.((t.head + k) mod Array.length t.pend).access
  done;
  (* In-flight blocks are distinct (the pump never issues a block already in
     flight), so each round writes the least one above the last written:
     ascending order without sorting a copy. *)
  let last = ref min_int in
  for _ = 1 to t.in_flight do
    let next = ref max_int in
    for i = 0 to t.in_flight - 1 do
      let a = Addr.to_int t.flight_addrs.(i) in
      if a > !last && a < !next then next := a
    done;
    Fp.key buf 'f' !next;
    last := !next
  done;
  if t.pump_scheduled then Buffer.add_char buf 'P';
  Buffer.add_char buf ';'
