type accel_request = Get_s | Get_m | Put_s | Put_e of Data.t | Put_m of Data.t

type xg_response = Data_s of Data.t | Data_e of Data.t | Data_m of Data.t | Wb_ack

type xg_request = Invalidate

type accel_response = Clean_wb of Data.t | Dirty_wb of Data.t | Inv_ack

type msg =
  | To_xg_req of { addr : Addr.t; req : accel_request }
  | To_xg_resp of { addr : Addr.t; resp : accel_response }
  | To_accel_resp of { addr : Addr.t; resp : xg_response }
  | To_accel_req of { addr : Addr.t; req : xg_request }

let request_carries_data = function
  | Put_e _ | Put_m _ -> true
  | Get_s | Get_m | Put_s -> false

let response_carries_data = function
  | Clean_wb _ | Dirty_wb _ -> true
  | Inv_ack -> false

let is_put = function Put_s | Put_e _ | Put_m _ -> true | Get_s | Get_m -> false

let msg_size = function
  | To_xg_req { req; _ } ->
      if request_carries_data req then Xguard_network.Network.data_size
      else Xguard_network.Network.control_size
  | To_xg_resp { resp; _ } ->
      if response_carries_data resp then Xguard_network.Network.data_size
      else Xguard_network.Network.control_size
  | To_accel_resp { resp; _ } -> (
      match resp with
      | Data_s _ | Data_e _ | Data_m _ -> Xguard_network.Network.data_size
      | Wb_ack -> Xguard_network.Network.control_size)
  | To_accel_req { req = Invalidate; _ } -> Xguard_network.Network.control_size

(* Text writers in the paper's message names ([GetS], [DataE(#7)], …); the
   [pp_*] printers below print exactly what they write. *)
let add_data buf name d =
  Buffer.add_string buf name;
  Buffer.add_string buf "(#";
  Fp.int buf d;
  Buffer.add_char buf ')'

let add_accel_request buf = function
  | Get_s -> Buffer.add_string buf "GetS"
  | Get_m -> Buffer.add_string buf "GetM"
  | Put_s -> Buffer.add_string buf "PutS"
  | Put_e d -> add_data buf "PutE" d
  | Put_m d -> add_data buf "PutM" d

let add_xg_response buf = function
  | Data_s d -> add_data buf "DataS" d
  | Data_e d -> add_data buf "DataE" d
  | Data_m d -> add_data buf "DataM" d
  | Wb_ack -> Buffer.add_string buf "WbAck"

let add_accel_response buf = function
  | Clean_wb d -> add_data buf "CleanWB" d
  | Dirty_wb d -> add_data buf "DirtyWB" d
  | Inv_ack -> Buffer.add_string buf "InvAck"

let pp_accel_request = Fp.pp_of add_accel_request
let pp_xg_response = Fp.pp_of add_xg_response
let pp_accel_response = Fp.pp_of add_accel_response

let msg_addr = function
  | To_xg_req { addr; _ }
  | To_xg_resp { addr; _ }
  | To_accel_resp { addr; _ }
  | To_accel_req { addr; _ } ->
      addr

let add_msg_text buf msg =
  (match msg with
  | To_xg_req { req; _ } -> add_accel_request buf req
  | To_xg_resp { resp; _ } -> add_accel_response buf resp
  | To_accel_resp { resp; _ } -> add_xg_response buf resp
  | To_accel_req { req = Invalidate; _ } -> Buffer.add_string buf "Invalidate");
  Buffer.add_string buf " 0x";
  Fp.hex buf (Addr.to_int (msg_addr msg))

let pp_msg = Fp.pp_of add_msg_text

(* A plausible single-event corruption of a link message: flip the message
   into a near-miss of itself (wrong request/response flavor, damaged data
   token).  Installed as the network's corruptor so injected [Corrupt] faults
   produce messages the guard must actually mis-handle — unless the
   reliability layer's checksum catches them first. *)
let corrupt_data d = Data.token (1000 + (Hashtbl.hash d mod 997))

let corrupt_msg = function
  | To_xg_req { addr; req } ->
      let req =
        match req with
        | Get_s -> Get_m
        | Get_m -> Get_s
        | Put_s -> Put_e Data.zero
        | Put_e d -> Put_m (corrupt_data d)
        | Put_m d -> Put_e (corrupt_data d)
      in
      To_xg_req { addr; req }
  | To_xg_resp { addr; resp } ->
      let resp =
        match resp with
        | Clean_wb d -> Dirty_wb (corrupt_data d)
        | Dirty_wb d -> Clean_wb (corrupt_data d)
        | Inv_ack -> Clean_wb Data.zero
      in
      To_xg_resp { addr; resp }
  | To_accel_resp { addr; resp } ->
      let resp =
        match resp with
        | Data_s d -> Data_m (corrupt_data d)
        | Data_e d -> Data_s (corrupt_data d)
        | Data_m d -> Data_e (corrupt_data d)
        | Wb_ack -> Data_s Data.zero
      in
      To_accel_resp { addr; resp }
  | To_accel_req { addr; req = Invalidate } ->
      (* An invalidation damaged into an unsolicited grant-looking response. *)
      To_accel_resp { addr; resp = Wb_ack }

(* Span-layer transaction type of an accelerator request. *)
let span_txn_of_request : accel_request -> Xguard_obs.Spans.txn = function
  | Get_s -> Xguard_obs.Spans.Get_s
  | Get_m -> Xguard_obs.Spans.Get_m
  | Put_s -> Xguard_obs.Spans.Put_s
  | Put_e _ -> Xguard_obs.Spans.Put_e
  | Put_m _ -> Xguard_obs.Spans.Put_m

module Link = struct
  module Engine = Xguard_sim.Engine
  module Trace = Xguard_trace.Trace
  module Counter = Xguard_stats.Counter
  module Coverage = Xguard_trace.Coverage
  module Network = Xguard_network.Network
  module Obs = Xguard_obs.Obs
  module Spans = Xguard_obs.Spans
  module Metrics = Xguard_obs.Metrics

  (* What actually travels on the wire.  Without reliability every payload is
     [Plain] — byte-for-byte the historical link.  With reliability payloads
     ride in [Frame]s carrying a per-directed-channel sequence number and a
     payload checksum; [Ack]/[Nack] are the receiver's cumulative
     acknowledgement and go-back-N retransmission request. *)
  type wire =
    | Plain of msg
    | Frame of { seq : int; check : int; payload : msg }
    | Ack of { next : int }
    | Nack of { expect : int }
    | Reset of { gen : int }
    | Reset_ack of { gen : int }

  module Raw = Network.Make (struct
    type t = wire
  end)

  let frame_header = 8
  let checksum (m : msg) = Hashtbl.hash m

  (* Per-directed-(src,dst) reliability state.  The tx fields belong to the
     channel's source, the rx fields to its destination; both live in one
     record because the link object sees both ends. *)
  type channel = {
    c_src : Node.t;
    c_dst : Node.t;
    (* tx *)
    mutable next_seq : int;
    outstanding : (int * msg * int) Queue.t;  (** (seq, payload, size) unacked *)
    mutable retries : int;  (** consecutive watchdog retransmission rounds *)
    mutable backoff : int;  (** current retransmission timeout *)
    mutable last_attempt : Engine.time;
    mutable last_retx : Engine.time;
    mutable reported : bool;  (** a fault round was escalated and not yet recovered *)
    mutable watchdog_on : bool;
    mutable dead : bool;
    (* rx *)
    mutable rx_next : int;  (** next sequence number expected *)
  }

  type t = {
    raw : Raw.t;
    engine : Engine.t;
    lname : string;
    mutable reliable : bool;
    mutable retry_timeout : int;
    mutable max_retries : int;
    channels : channel Int_table.t;  (** keyed by [channel_key] *)
    mutable killed : bool;
    (* True only for the guard link (accel <-> XG); the span layer attributes
       link transit segments on crossing links alone, so purely accel-internal
       links never touch the recorder. *)
    mutable crossing : bool;
    (* Per-guard series label for the metrics layer ("xg" legacy, "xg.a0" in
       a topology).  Empty (the default) keeps the metrics hooks silent, so
       only guard links that [System.build] labels under an armed metrics
       recorder ever pay for them. *)
    mutable mlabel : string;
    mutable monitor : (src:Node.t -> dst:Node.t -> msg -> unit) option;
    mutable ptracer : (msg -> int * string) option;
    mutable on_fault : unit -> unit;
    mutable on_recover : unit -> unit;
    (* Reset handshake (recovery lifecycle).  [reset_gen] numbers handshakes
       on the initiator side; [reset_seen] is the highest generation the
       responder has processed (so duplicated/retransmitted Resets re-ack
       without re-flushing); [pending_reset] holds the completion callback
       until the matching Reset_ack arrives. *)
    mutable reset_gen : int;
    mutable reset_seen : int;
    mutable pending_reset : (int * (unit -> unit)) option;
    mutable on_reset : unit -> unit;
    stats : Counter.Group.t;
    cov : Counter.Group.t;
    covm : Coverage.matrix;
    (* interned hot stat counters (PR 4) *)
    s_frames_sent : Counter.Group.id;
    s_delivered : Counter.Group.id;
    s_acks_absorbed : Counter.Group.id;
    s_dups_suppressed : Counter.Group.id;
  }

  let coverage_space =
    Coverage.space ~name:"xg.link"
      ~states:[ "Idle"; "Await"; "Retry"; "Failing"; "Dead" ]
      ~events:
        [
          "Send"; "SendDead"; "Deliver"; "Dup"; "Gap"; "Corrupt"; "Ack"; "AckStale";
          "Nack"; "Retry"; "Fault"; "Recover"; "Kill";
        ]
      ()

  (* Event indices into [coverage_space]'s events list. *)
  let lv_send = 0
  let lv_send_dead = 1
  let lv_deliver = 2
  let lv_dup = 3
  let lv_gap = 4
  let lv_corrupt = 5
  let lv_ack = 6
  let lv_ack_stale = 7
  let lv_nack = 8
  let lv_retry = 9
  let lv_fault = 10
  let lv_recover = 11

  (* The per-frame counters, hashed once per process and adopted by every
     link's fresh group, in the order of the [s_*] fields. *)
  let hot_stats = Counter.Group.vocab [| "frames_sent"; "delivered"; "acks_absorbed"; "dups_suppressed" |]

  let create ~engine ~rng ~name ~ordering () =
    let stats = Counter.Group.create (name ^ ".link") in
    let cov = Counter.Group.create (name ^ ".link.cov") in
    let sid = Counter.Group.adopt stats hot_stats in
    let t =
      {
        raw = Raw.create ~engine ~rng ~name ~ordering ();
        engine;
        lname = name;
        reliable = false;
        retry_timeout = 32;
        max_retries = 6;
        channels = Int_table.create 8;
        killed = false;
        crossing = false;
        mlabel = "";
        monitor = None;
        ptracer = None;
        on_fault = (fun () -> ());
        on_recover = (fun () -> ());
        reset_gen = 0;
        reset_seen = 0;
        pending_reset = None;
        on_reset = (fun () -> ());
        stats;
        cov;
        covm = Coverage.intern_matrix coverage_space cov;
        s_frames_sent = sid.(0);
        s_delivered = sid.(1);
        s_acks_absorbed = sid.(2);
        s_dups_suppressed = sid.(3);
      }
    in
    Raw.set_corruptor t.raw (function
      | Plain m -> Plain (corrupt_msg m)
      (* The checksum is computed before corruption and kept, which is the
         point: the damaged payload no longer matches it. *)
      | Frame { seq; check; payload } -> Frame { seq; check; payload = corrupt_msg payload }
      | (Ack _ | Nack _ | Reset _ | Reset_ack _) as w -> w);
    t

  let name t = t.lname
  let mark_crossing t = t.crossing <- true
  let set_metrics_label t label = t.mlabel <- label

  (* Span hooks.  Fired once per logical payload: [span_send] from {!send}
     (retransmits re-enter via [send_frame] only) and [span_deliver] from the
     wrapped {!register} handler (which the reliability layer invokes only on
     the first in-order delivery, so duplicates never double-close). *)
  let span_send sr msg ~now =
    match msg with
    | To_xg_req { addr; req } ->
        Spans.xreq_open sr (span_txn_of_request req) ~addr:(Addr.to_int addr) ~now
    | To_accel_resp { addr; _ } -> Spans.resp_sent sr ~addr:(Addr.to_int addr) ~now
    | To_accel_req { addr; req = Invalidate } -> Spans.inv_open sr ~addr:(Addr.to_int addr) ~now
    | To_xg_resp _ -> ()

  let span_deliver sr msg ~now =
    match msg with
    | To_xg_req { addr; _ } -> Spans.xreq_delivered sr ~addr:(Addr.to_int addr) ~now
    | To_xg_resp { addr; _ } -> Spans.inv_closed sr ~addr:(Addr.to_int addr) ~now
    | To_accel_resp { addr; _ } -> Spans.resp_delivered sr ~addr:(Addr.to_int addr) ~now
    | To_accel_req _ -> ()

  (* Metrics hooks, parallel to the span hooks: per-guard end-to-end request
     latency (accel request sent -> guard response delivered) and invalidate
     roundtrips, attributed to [t.mlabel] so every tenant in a topology gets
     its own SLO-judgeable series. *)
  let metrics_send mr t msg ~now =
    match msg with
    | To_xg_req { addr; _ } ->
        Metrics.e2e_open mr ~guard:t.mlabel ~addr:(Addr.to_int addr) ~now
    | To_accel_req { addr; req = Invalidate } ->
        Metrics.inv_open mr ~guard:t.mlabel ~addr:(Addr.to_int addr) ~now
    | To_accel_resp _ | To_xg_resp _ -> ()

  let metrics_deliver mr t msg ~now =
    match msg with
    | To_accel_resp { addr; _ } ->
        Metrics.e2e_close mr ~guard:t.mlabel ~addr:(Addr.to_int addr) ~now
    | To_xg_resp { addr; _ } ->
        Metrics.inv_close mr ~guard:t.mlabel ~addr:(Addr.to_int addr) ~now
    | To_xg_req _ | To_accel_req _ -> ()

  (* One payload sent or delivered, seen by each layer this link feeds: a
     crossing link the span layer, a labelled one the metrics layer.  Both
     flags are set at build time only when that layer is armed. *)
  let observe t ~sent msg =
    let now = Engine.now t.engine in
    let o = Obs.get () in
    (match o.Obs.spans with
    | Some sr when t.crossing -> if sent then span_send sr msg ~now else span_deliver sr msg ~now
    | _ -> ());
    match o.Obs.metrics with
    | Some mr when t.mlabel <> "" ->
        if sent then metrics_send mr t msg ~now else metrics_deliver mr t msg ~now
    | _ -> ()

  let span_retry sr payload ~now =
    match payload with
    | To_xg_req { addr; _ } | To_accel_resp { addr; _ } -> (
        let addr = Addr.to_int addr in
        match Spans.lookup sr ~addr with
        | Some (span, txn) -> Spans.record sr Spans.Link_retry txn ~span ~addr ~ts:now ~dur:0
        | None -> ())
    | To_accel_req { addr; _ } | To_xg_resp { addr; _ } ->
        Spans.record sr Spans.Link_retry Spans.Inv ~span:0 ~addr:(Addr.to_int addr) ~ts:now
          ~dur:0

  (* Node ids are small and dense, so one int names a directed pair. *)
  let channel_key ~src ~dst = (Node.id src lsl 16) lor Node.id dst

  let channel t ~src ~dst =
    let key = channel_key ~src ~dst in
    match Int_table.find t.channels key with
    | ch -> ch
    | exception Not_found ->
        let ch =
          {
            c_src = src;
            c_dst = dst;
            next_seq = 0;
            outstanding = Queue.create ();
            retries = 0;
            backoff = t.retry_timeout;
            last_attempt = 0;
            last_retx = -1;
            reported = false;
            watchdog_on = false;
            dead = false;
            rx_next = 0;
          }
        in
        Int_table.replace t.channels key ch;
        ch

  (* tx-side condition of a directed channel, indexing [coverage_space]'s
     states list, for dense-id coverage keys (PR 4). *)
  let ch_state_idx t ch =
    if t.killed || ch.dead then 4 (* Dead *)
    else if ch.reported then 3 (* Failing *)
    else if ch.retries > 0 then 2 (* Retry *)
    else if not (Queue.is_empty ch.outstanding) then 1 (* Await *)
    else 0 (* Idle *)

  let visit t ch event = Coverage.hit t.covm ~state:(ch_state_idx t ch) ~event

  (* printf-style; the text is formatted only while tracing is on. *)
  let note t fmt =
    match Obs.trace () with
    | Some tr ->
        Printf.ksprintf
          (fun text ->
            Trace.note tr ~cycle:(Engine.now t.engine) ~controller:(t.lname ^ ".link") ~text ())
          fmt
    | None -> Printf.ifprintf () fmt


  (* ---- tx ---- *)

  let send_frame t ch (seq, payload, size) =
    Raw.send t.raw ~src:ch.c_src ~dst:ch.c_dst ~size:(size + frame_header)
      (Frame { seq; check = checksum payload; payload })

  let retransmit t ch ~why =
    if not (Queue.is_empty ch.outstanding) then begin
      let now = Engine.now t.engine in
      if now > ch.last_retx then begin
        ch.last_retx <- now;
        ch.last_attempt <- now;
        visit t ch lv_retry;
        Counter.Group.incr t.stats "retransmit_rounds";
        Counter.Group.add t.stats "retransmit_frames" (Queue.length ch.outstanding);
        note t "retransmit (%s) %d frame(s) from #%d" why
          (Queue.length ch.outstanding)
          (match Queue.peek_opt ch.outstanding with Some (s, _, _) -> s | None -> 0);
        (match Obs.spans () with
        | Some sr when t.crossing ->
            Queue.iter (fun (_, payload, _) -> span_retry sr payload ~now) ch.outstanding
        | _ -> ());
        Queue.iter (fun f -> send_frame t ch f) ch.outstanding
      end
    end

  let watchdog_tick t ch () =
    if t.killed || ch.dead || Queue.is_empty ch.outstanding then begin
      ch.watchdog_on <- false;
      false
    end
    else begin
      let now = Engine.now t.engine in
      if now - ch.last_attempt >= ch.backoff then begin
        ch.retries <- ch.retries + 1;
        if ch.retries > t.max_retries then begin
          (* A full backoff ladder burned with no acknowledgement progress:
             escalate.  Every further silent round escalates again, so the
             guard can count consecutive unrecoverable faults. *)
          visit t ch lv_fault;
          Counter.Group.incr t.stats "faults_escalated";
          ch.reported <- true;
          note t "link fault: %d silent rounds" ch.retries;
          t.on_fault ()
        end;
        if not (t.killed || ch.dead) then begin
          retransmit t ch ~why:"timeout";
          ch.backoff <- min (ch.backoff * 2) (t.retry_timeout * 16)
        end
      end;
      if t.killed || ch.dead || Queue.is_empty ch.outstanding then begin
        ch.watchdog_on <- false;
        false
      end
      else true
    end

  let arm_watchdog t ch =
    if not ch.watchdog_on then begin
      ch.watchdog_on <- true;
      Engine.every t.engine ~period:t.retry_timeout (watchdog_tick t ch)
    end

  (* Pop outstanding frames the receiver has cumulatively acknowledged below
     [next]; returns how many were retired. *)
  let absorb_ack t ch ~next =
    let retired = ref 0 in
    let continue = ref true in
    while !continue do
      match Queue.peek_opt ch.outstanding with
      | Some (seq, _, _) when seq < next ->
          ignore (Queue.pop ch.outstanding);
          incr retired
      | _ -> continue := false
    done;
    if !retired > 0 then begin
      ch.retries <- 0;
      ch.backoff <- t.retry_timeout;
      ch.last_attempt <- Engine.now t.engine;
      if ch.reported then begin
        ch.reported <- false;
        visit t ch lv_recover;
        Counter.Group.incr t.stats "recoveries";
        note t "link recovered";
        t.on_recover ()
      end
    end;
    !retired

  (* ---- rx ---- *)

  let handle_frame t ~self ~src handler ~seq ~check ~payload =
    let ch = channel t ~src ~dst:self in
    if t.killed || ch.dead then ()
    else if check <> checksum payload then begin
      visit t ch lv_corrupt;
      Counter.Group.incr t.stats "corrupt_detected";
      note t "checksum mismatch on #%d" seq;
      Raw.send t.raw ~src:self ~dst:src (Nack { expect = ch.rx_next })
    end
    else if seq = ch.rx_next then begin
      ch.rx_next <- ch.rx_next + 1;
      visit t ch lv_deliver;
      Counter.Group.incr_id t.stats t.s_delivered;
      Raw.send t.raw ~src:self ~dst:src (Ack { next = ch.rx_next });
      handler ~src payload
    end
    else if seq < ch.rx_next then begin
      (* Already delivered once: suppress, but re-ack so a lost Ack does not
         leave the sender retransmitting forever. *)
      visit t ch lv_dup;
      Counter.Group.incr_id t.stats t.s_dups_suppressed;
      note t "duplicate #%d suppressed (expect #%d)" seq ch.rx_next;
      Raw.send t.raw ~src:self ~dst:src (Ack { next = ch.rx_next })
    end
    else begin
      (* Gap: go-back-N keeps no out-of-order buffer; ask for a resend. *)
      visit t ch lv_gap;
      Counter.Group.incr t.stats "gaps_detected";
      note t "gap: got #%d, expected #%d" seq ch.rx_next;
      Raw.send t.raw ~src:self ~dst:src (Nack { expect = ch.rx_next })
    end

  let handle_control t ~self ~src wire =
    (* Acks and Nacks received at [self] concern the channel self->src. *)
    let ch = channel t ~src:self ~dst:src in
    if t.killed || ch.dead then ()
    else
      match wire with
      | Ack { next } ->
          if absorb_ack t ch ~next > 0 then begin
            visit t ch lv_ack;
            Counter.Group.incr_id t.stats t.s_acks_absorbed
          end
          else visit t ch lv_ack_stale
      | Nack { expect } ->
          ignore (absorb_ack t ch ~next:expect);
          visit t ch lv_nack;
          Counter.Group.incr t.stats "nacks_received";
          retransmit t ch ~why:"nack"
      | Plain _ | Frame _ | Reset _ | Reset_ack _ -> assert false

  (* ---- reset handshake ---- *)

  (* Responder side.  The first Reset of a generation flushes the
     accelerator-side model (the [on_reset] hook) and acks; retransmitted or
     duplicated Resets only re-ack, so a lost Reset_ack cannot flush twice. *)
  let handle_reset t ~self ~src ~gen =
    if not t.killed then begin
      if gen > t.reset_seen then begin
        t.reset_seen <- gen;
        Counter.Group.incr t.stats "resets_received";
        note t "reset #%d received: flushing accelerator state" gen;
        t.on_reset ()
      end;
      Raw.send t.raw ~src:self ~dst:src (Reset_ack { gen })
    end

  (* Initiator side: only the generation we are currently waiting on
     completes the handshake; stale acks (an earlier handshake's stragglers)
     are dropped. *)
  let handle_reset_ack t ~gen =
    match t.pending_reset with
    | Some (g, ready) when g = gen ->
        t.pending_reset <- None;
        Counter.Group.incr t.stats "resets_completed";
        note t "reset #%d complete" gen;
        ready ()
    | _ -> ()

  let rewind_channels t =
    let now = Engine.now t.engine in
    Int_table.iter
      (fun _ ch ->
        ch.next_seq <- 0;
        Queue.clear ch.outstanding;
        ch.retries <- 0;
        ch.backoff <- t.retry_timeout;
        ch.last_attempt <- now;
        ch.last_retx <- -1;
        ch.reported <- false;
        ch.dead <- false;
        ch.rx_next <- 0)
      t.channels

  let reset t ~src ~dst ?(timeout = 64) ?(attempts = 4) ~on_ready ~on_dead () =
    (* Splice the physical wire (reverses a kill / scripted cut), revive the
       channels and rewind every sequence number on both sides — the link
       object is shared by both endpoints, so one rewind covers tx and rx
       state.  Probabilistic fault injectors stay installed: the handshake
       itself rides the lossy wire, hence the retry ladder. *)
    Raw.splice_wire t.raw;
    t.killed <- false;
    rewind_channels t;
    let gen = t.reset_gen + 1 in
    t.reset_gen <- gen;
    t.pending_reset <- Some (gen, on_ready);
    Counter.Group.incr t.stats "resets_initiated";
    note t "reset #%d initiated" gen;
    let timeout = max 1 timeout and attempts = max 1 attempts in
    let tries = ref 1 in
    Raw.send t.raw ~src ~dst (Reset { gen });
    Engine.every t.engine ~period:timeout (fun () ->
        match t.pending_reset with
        | Some (g, _) when g = gen ->
            if !tries >= attempts then begin
              t.pending_reset <- None;
              Counter.Group.incr t.stats "resets_failed";
              note t "reset #%d failed after %d attempt(s)" gen !tries;
              on_dead ();
              false
            end
            else begin
              incr tries;
              Counter.Group.incr t.stats "reset_retries";
              note t "reset #%d retry %d" gen !tries;
              Raw.send t.raw ~src ~dst (Reset { gen });
              true
            end
        | _ -> false)

  let set_reset_handler t f = t.on_reset <- f

  let channel_state t ~src ~dst =
    let ch = channel t ~src ~dst in
    (ch.next_seq, ch.rx_next, Queue.length ch.outstanding)

  let register t node handler =
    let handler ~src msg =
      if t.crossing || t.mlabel <> "" then observe t ~sent:false msg;
      handler ~src msg
    in
    Raw.register t.raw node (fun ~src wire ->
        match wire with
        | Plain m -> handler ~src m
        | Frame { seq; check; payload } ->
            handle_frame t ~self:node ~src handler ~seq ~check ~payload
        | Reset { gen } -> handle_reset t ~self:node ~src ~gen
        | Reset_ack { gen } -> handle_reset_ack t ~gen
        | Ack _ | Nack _ -> handle_control t ~self:node ~src wire)

  let send t ~src ~dst ?(size = Network.control_size) msg =
    (match t.monitor with Some f -> f ~src ~dst msg | None -> ());
    if t.crossing || t.mlabel <> "" then observe t ~sent:true msg;
    if not t.reliable then Raw.send t.raw ~src ~dst ~size (Plain msg)
    else begin
      let ch = channel t ~src ~dst in
      if t.killed || ch.dead then begin
        visit t ch lv_send_dead;
        Counter.Group.incr t.stats "sends_on_dead_link"
      end
      else begin
        let seq = ch.next_seq in
        ch.next_seq <- seq + 1;
        if Queue.is_empty ch.outstanding then ch.last_attempt <- Engine.now t.engine;
        Queue.add (seq, msg, size) ch.outstanding;
        visit t ch lv_send;
        Counter.Group.incr_id t.stats t.s_frames_sent;
        send_frame t ch (seq, msg, size);
        arm_watchdog t ch
      end
    end

  (* ---- reliability control ---- *)

  let enable_reliability t ?(retry_timeout = 32) ?(max_retries = 6) () =
    t.reliable <- true;
    t.retry_timeout <- max 1 retry_timeout;
    t.max_retries <- max 0 max_retries

  let reliable t = t.reliable

  let set_fault_handler t ~on_fault ~on_recover =
    t.on_fault <- on_fault;
    t.on_recover <- on_recover

  let kill t =
    if not t.killed then begin
      t.killed <- true;
      Counter.Group.incr t.stats "killed";
      Int_table.iter
        (fun _ ch ->
          ch.dead <- true;
          Queue.clear ch.outstanding)
        t.channels;
      Counter.Group.incr t.cov "Dead.Kill";
      note t "link killed";
      Raw.cut_wire t.raw
    end

  let killed t = t.killed

  (* ---- passthrough ---- *)

  let messages_sent t = Raw.messages_sent t.raw
  let bytes_sent t = Raw.bytes_sent t.raw
  let bytes_from t node = Raw.bytes_from t.raw node

  let in_flight t =
    Int_table.fold (fun _ ch acc -> acc + Queue.length ch.outstanding) t.channels 0
  let set_monitor t f = t.monitor <- Some f

  let set_tracer t describe =
    t.ptracer <- Some describe;
    Raw.set_tracer t.raw (function
        | Plain m -> describe m
        | Frame { seq; payload; _ } ->
            let addr, text = describe payload in
            (addr, Printf.sprintf "#%d %s" seq text)
        | Ack { next } -> (Trace.no_addr, Printf.sprintf "LinkAck(%d)" next)
        | Nack { expect } -> (Trace.no_addr, Printf.sprintf "LinkNack(%d)" expect)
        | Reset { gen } -> (Trace.no_addr, Printf.sprintf "LinkReset(%d)" gen)
        | Reset_ack { gen } -> (Trace.no_addr, Printf.sprintf "LinkResetAck(%d)" gen))

  let enable_check_mode t ?ctrl_of () =
    Raw.enable_check_mode t.raw ?ctrl_of
      ~addr_of:(function
        | Plain m | Frame { payload = m; _ } -> Addr.to_int (msg_addr m)
        | Ack _ | Nack _ | Reset _ | Reset_ack _ -> -1)
      ()

  let check_fingerprint t buf = Raw.check_fingerprint t.raw buf
  let set_delay_chooser t f = Raw.set_delay_chooser t.raw f

  let set_faults t ~rng config = Raw.set_faults t.raw ~rng config
  let add_fault_script t s = Raw.add_fault_script t.raw s
  let cut_wire t = Raw.cut_wire t.raw
  let faults_active t = Raw.faults_active t.raw
  let fault_counts t = Raw.fault_counts t.raw
  let link_stats t = t.stats
  let coverage t = t.cov
end
