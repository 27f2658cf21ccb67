module Engine = Xguard_sim.Engine
module Rng = Xguard_sim.Rng
module Trace = Xguard_trace.Trace
module Obs = Xguard_obs.Obs
module Fp = Xguard_proto.Fp
module Int_table = Xguard_proto.Int_table

type ordering =
  | Ordered of { latency : int }
  | Unordered of { min_latency : int; max_latency : int }

let control_size = 8
let data_size = 72

module Fault = struct
  type kind = Drop | Duplicate | Corrupt | Delay of int | Kill

  type config = {
    drop : float;
    duplicate : float;
    corrupt : float;
    delay : float;
    max_delay : int;
  }

  let zero = { drop = 0.0; duplicate = 0.0; corrupt = 0.0; delay = 0.0; max_delay = 0 }

  let active c =
    c.drop > 0.0 || c.duplicate > 0.0 || c.corrupt > 0.0
    || (c.delay > 0.0 && c.max_delay > 0)

  type script = { nth : int; needle : string option; kind : kind }

  let kind_to_string = function
    | Drop -> "drop"
    | Duplicate -> "dup"
    | Corrupt -> "corrupt"
    | Delay d -> Printf.sprintf "delay@%d" d
    | Kill -> "kill"

  let script_to_string s =
    kind_to_string s.kind ^ ":" ^ string_of_int s.nth
    ^ match s.needle with None -> "" | Some n -> ":" ^ n

  let kind_of_string s =
    match String.index_opt s '@' with
    | Some i when String.sub s 0 i = "delay" -> (
        match int_of_string_opt (String.sub s (i + 1) (String.length s - i - 1)) with
        | Some d when d > 0 -> Ok (Delay d)
        | _ -> Error (Printf.sprintf "bad delay cycles in %S" s))
    | _ -> (
        match s with
        | "drop" -> Ok Drop
        | "dup" | "duplicate" -> Ok Duplicate
        | "corrupt" -> Ok Corrupt
        | "kill" -> Ok Kill
        | _ -> Error (Printf.sprintf "unknown fault kind %S" s))

  let script_of_string spec =
    match String.split_on_char ':' spec with
    | kind_s :: nth_s :: rest -> (
        match kind_of_string kind_s with
        | Error _ as e -> e
        | Ok kind -> (
            match int_of_string_opt nth_s with
            | Some nth when nth >= 1 ->
                let needle =
                  match rest with [] -> None | parts -> Some (String.concat ":" parts)
                in
                Ok { nth; needle; kind }
            | _ -> Error (Printf.sprintf "bad message index in %S (expected >= 1)" spec)))
    | _ ->
        Error
          (Printf.sprintf
             "bad fault script %S (expected KIND:N[:NEEDLE], kind one of \
              drop|dup|corrupt|kill|delay@CYCLES)"
             spec)

  type counts = {
    mutable drops : int;
    mutable duplicates : int;
    mutable corrupts : int;
    mutable delays : int;
  }

  let fresh_counts () = { drops = 0; duplicates = 0; corrupts = 0; delays = 0 }

  let counts_to_list c =
    [
      ("injected.drop", c.drops);
      ("injected.dup", c.duplicates);
      ("injected.corrupt", c.corrupts);
      ("injected.delay", c.delays);
    ]
end

(* Naive substring search; needles are short CLI-supplied fragments. *)
let contains ~needle hay =
  let nl = String.length needle and hl = String.length hay in
  if nl = 0 then true
  else begin
    let rec go i = i + nl <= hl && (String.sub hay i nl = needle || go (i + 1)) in
    go 0
  end

module Make (Msg : sig
  type t
end) =
struct
  type handler = src:Xguard_proto.Node.t -> Msg.t -> unit

  type t = {
    engine : Engine.t;
    rng : Rng.t;
    name : string;
    ordering : ordering;
    (* Handlers indexed by destination node id; grown at [register]. *)
    mutable handlers : handler option array;
    (* For ordered delivery: earliest time the next message on a (src,dst)
       pair may be delivered, so FIFO order survives same-cycle scheduling.
       [fifo.(src_id).(dst_id)], 0 for a pair that never sent; rows and the
       row array grow on a pair's first send, never at build time. *)
    mutable fifo : int array array;
    mutable messages : int;
    mutable bytes : int;
    (* Per-source byte counters, indexed by node id; grown on demand.  A flat
       array instead of a Hashtbl: two fewer probes per message (PR 4). *)
    mutable bytes_by_src : int array;
    mutable monitor : (src:Xguard_proto.Node.t -> dst:Xguard_proto.Node.t -> Msg.t -> unit) option;
    (* How to describe a message to the tracer: block address plus text.
       Consulted only when a trace buffer is armed. *)
    mutable tracer : (Msg.t -> int * string) option;
    (* Fault injection.  [faults]/[fault_rng] drive the probabilistic model;
       [scripts] fire deterministically on the Nth message whose tracer text
       contains the needle.  All are [None]/empty by default, in which case
       [send] takes exactly the historical path (no extra draws, no extra
       allocation), preserving byte-identical runs. *)
    mutable faults : Fault.config option;
    mutable fault_rng : Rng.t option;
    scripts : (Fault.script * int ref) Queue.t;
    mutable wire_cut : bool;
    mutable corruptor : (Msg.t -> Msg.t) option;
    fault_counts : Fault.counts;
    (* Cached [faults_active]: true iff any injector, script or wire cut is
       installed.  When false, [send] takes an allocation-free fast path that
       never consults the fault machinery (PR 4). *)
    mutable fault_path : bool;
    (* Model-checker support (lib/check); all [None] outside check mode, in
       which case the send path computes no tags and tracks nothing. *)
    mutable check_addr : (Msg.t -> int) option;
    mutable check_ctrl : int -> int;
    (* token -> (delivery time, src id, dst id, message).  Messages are
       immutable, so the fingerprint renders their text through [tracer]
       when it is taken instead of on every send. *)
    mutable inflight : (int * int * int * Msg.t) Int_table.t option;
    mutable inflight_next : int;
    mutable delay_chooser : (lo:int -> hi:int -> int) option;
  }

  let create ~engine ~rng ~name ~ordering () =
    {
      engine;
      rng;
      name;
      ordering;
      handlers = [||];
      fifo = [||];
      messages = 0;
      bytes = 0;
      bytes_by_src = [||];
      monitor = None;
      tracer = None;
      faults = None;
      fault_rng = None;
      scripts = Queue.create ();
      wire_cut = false;
      corruptor = None;
      fault_counts = Fault.fresh_counts ();
      fault_path = false;
      check_addr = None;
      check_ctrl = (fun id -> id);
      inflight = None;
      inflight_next = 0;
      delay_chooser = None;
    }

  let name t = t.name

  (* [a] with room for index [i]: the same contents, padded with [fill]. *)
  let grown a i fill =
    let a' = Array.make (max 8 (2 * (i + 1))) fill in
    Array.blit a 0 a' 0 (Array.length a);
    a'

  let register t node handler =
    let id = Xguard_proto.Node.id node in
    if id >= Array.length t.handlers then t.handlers <- grown t.handlers id None;
    if Option.is_some t.handlers.(id) then
      invalid_arg
        (Printf.sprintf "Network.register(%s): node %s already registered" t.name
           (Xguard_proto.Node.name node));
    t.handlers.(id) <- Some handler

  (* The FIFO row of [src_id], with room for column [dst_id]. *)
  let fifo_row t ~src_id ~dst_id =
    if src_id >= Array.length t.fifo then t.fifo <- grown t.fifo src_id [||];
    let row = t.fifo.(src_id) in
    if dst_id < Array.length row then row
    else begin
      let row = grown row dst_id 0 in
      t.fifo.(src_id) <- row;
      row
    end

  let delivery_time t ~src ~dst =
    let now = Engine.now t.engine in
    match t.ordering with
    | Ordered { latency } ->
        let dst_id = Xguard_proto.Node.id dst in
        let row = fifo_row t ~src_id:(Xguard_proto.Node.id src) ~dst_id in
        let at = max (now + latency) row.(dst_id) in
        row.(dst_id) <- at;
        at
    | Unordered { min_latency; max_latency } -> (
        match t.delay_chooser with
        | Some choose -> now + choose ~lo:min_latency ~hi:max_latency
        | None -> now + Rng.int_in t.rng ~lo:min_latency ~hi:max_latency)

  (* ---- fault injection ---- *)

  let refresh_fault_path t =
    t.fault_path <-
      (t.wire_cut
      || (not (Queue.is_empty t.scripts))
      || match t.faults with Some c -> Fault.active c | None -> false)

  let set_faults t ~rng config =
    t.faults <- Some config;
    t.fault_rng <- Some rng;
    refresh_fault_path t

  let add_fault_script t script =
    (* O(1): scripts live in a queue, iterated in registration order. *)
    Queue.add (script, ref 0) t.scripts;
    refresh_fault_path t

  let set_corruptor t f = t.corruptor <- Some f

  let cut_wire t =
    t.wire_cut <- true;
    refresh_fault_path t

  let splice_wire t =
    t.wire_cut <- false;
    refresh_fault_path t

  let wire_cut t = t.wire_cut
  let fault_counts t = t.fault_counts
  let faults_active t = t.fault_path

  let fault_note t text =
    match Obs.trace () with
    | Some tr -> Trace.note tr ~cycle:(Engine.now t.engine) ~controller:t.name ~text ()
    | None -> ()

  (* Record one send or delivery of [msg] in the armed trace ring [tr], when
     the network has a tracer to render it. *)
  let trace_msg t tr emit ~cycle ~src ~dst msg =
    match t.tracer with
    | Some describe ->
        let addr, text = describe msg in
        emit tr ~cycle ~net:t.name ~src:(Xguard_proto.Node.name src)
          ~dst:(Xguard_proto.Node.name dst) ~addr ~text
    | None -> ()

  (* The Nth-matching-message scripts.  Every script's match counter advances
     on a matching message; the first script whose counter reaches its index
     supplies the fault kind.  Matching consults the tracer's text rendering
     (no tracer: only needle-less scripts can match). *)
  let script_kind t msg =
    if Queue.is_empty t.scripts then None
    else begin
      let text =
        lazy (match t.tracer with Some describe -> snd (describe msg) | None -> "")
      in
      Queue.fold
        (fun acc (s, seen) ->
          let matches =
            match s.Fault.needle with
            | None -> true
            | Some needle -> contains ~needle (Lazy.force text)
          in
          if matches then begin
            incr seen;
            match acc with
            | Some _ -> acc
            | None -> if !seen = s.Fault.nth then Some s.Fault.kind else None
          end
          else acc)
        None t.scripts
    end

  (* What to do with one message: lose it, or deliver [copies] of [payload],
     the second copy one cycle behind, everything [extra] cycles late. *)
  type plan = Lose | Deliver of { payload : Msg.t; copies : int; extra : int }

  let corrupted t msg =
    t.fault_counts.Fault.corrupts <- t.fault_counts.Fault.corrupts + 1;
    match t.corruptor with
    | Some f -> Some (f msg)
    | None ->
        (* No payload mutator registered: model the corruption as a loss (the
           message is damaged beyond parsing). *)
        None

  let plan_of_kind t msg = function
    | Fault.Kill ->
        t.wire_cut <- true;
        t.fault_path <- true;
        t.fault_counts.Fault.drops <- t.fault_counts.Fault.drops + 1;
        fault_note t "fault: wire cut";
        Lose
    | Fault.Drop ->
        t.fault_counts.Fault.drops <- t.fault_counts.Fault.drops + 1;
        fault_note t "fault: drop";
        Lose
    | Fault.Duplicate ->
        t.fault_counts.Fault.duplicates <- t.fault_counts.Fault.duplicates + 1;
        fault_note t "fault: duplicate";
        Deliver { payload = msg; copies = 2; extra = 0 }
    | Fault.Corrupt -> (
        fault_note t "fault: corrupt";
        match corrupted t msg with
        | Some payload -> Deliver { payload; copies = 1; extra = 0 }
        | None -> Lose)
    | Fault.Delay d ->
        t.fault_counts.Fault.delays <- t.fault_counts.Fault.delays + 1;
        fault_note t "fault: delay";
        Deliver { payload = msg; copies = 1; extra = d }

  let fault_plan t msg =
    if t.wire_cut then begin
      t.fault_counts.Fault.drops <- t.fault_counts.Fault.drops + 1;
      Lose
    end
    else
      match script_kind t msg with
      | Some kind -> plan_of_kind t msg kind
      | None -> (
          match (t.faults, t.fault_rng) with
          | Some cfg, Some rng when Fault.active cfg ->
              if cfg.Fault.drop > 0.0 && Rng.chance rng cfg.Fault.drop then begin
                t.fault_counts.Fault.drops <- t.fault_counts.Fault.drops + 1;
                fault_note t "fault: drop";
                Lose
              end
              else begin
                let corrupt =
                  cfg.Fault.corrupt > 0.0 && Rng.chance rng cfg.Fault.corrupt
                in
                let dup =
                  cfg.Fault.duplicate > 0.0 && Rng.chance rng cfg.Fault.duplicate
                in
                let extra =
                  if
                    cfg.Fault.delay > 0.0 && cfg.Fault.max_delay > 0
                    && Rng.chance rng cfg.Fault.delay
                  then begin
                    t.fault_counts.Fault.delays <- t.fault_counts.Fault.delays + 1;
                    fault_note t "fault: delay";
                    1 + Rng.int rng cfg.Fault.max_delay
                  end
                  else 0
                in
                let payload =
                  if corrupt then begin
                    fault_note t "fault: corrupt";
                    corrupted t msg
                  end
                  else Some msg
                in
                match payload with
                | None -> Lose
                | Some payload ->
                    if dup then begin
                      t.fault_counts.Fault.duplicates <-
                        t.fault_counts.Fault.duplicates + 1;
                      fault_note t "fault: duplicate"
                    end;
                    Deliver { payload; copies = (if dup then 2 else 1); extra }
              end
          | _ -> Deliver { payload = msg; copies = 1; extra = 0 })

  (* One in-flight delivery.  In check mode the message is recorded in the
     in-flight table until its delivery thunk runs (the table feeds the
     checker's state fingerprint) and the event carries a (dst, addr) choice
     tag; otherwise this is exactly the historical schedule. *)
  let schedule_delivery t ~src ~dst ~at msg handler =
    let deliver () =
      (match Obs.trace () with
      | Some tr -> trace_msg t tr Trace.recv ~cycle:(Engine.now t.engine) ~src ~dst msg
      | None -> ());
      handler ~src msg
    in
    let tag =
      match t.check_addr with
      | Some addr_of ->
          Engine.pack_tag
            ~ctrl:(t.check_ctrl (Xguard_proto.Node.id dst))
            ~addr:(addr_of msg)
      | None -> Engine.no_tag
    in
    match t.inflight with
    | None -> Engine.schedule_at t.engine at ~tag deliver
    | Some table ->
        let token = t.inflight_next in
        t.inflight_next <- token + 1;
        Int_table.replace table token
          (at, Xguard_proto.Node.id src, Xguard_proto.Node.id dst, msg);
        Engine.schedule_at t.engine at ~tag (fun () ->
            Int_table.remove table token;
            deliver ())

  let send t ~src ~dst ?(size = control_size) msg =
    let dst_id = Xguard_proto.Node.id dst in
    let handler =
      match if dst_id < Array.length t.handlers then t.handlers.(dst_id) else None with
      | Some h -> h
      | None ->
          invalid_arg
            (Printf.sprintf "Network.send(%s): no handler registered for %s" t.name
               (Xguard_proto.Node.name dst))
    in
    (match t.monitor with Some f -> f ~src ~dst msg | None -> ());
    (match Obs.trace () with
    | Some tr -> trace_msg t tr Trace.send ~cycle:(Engine.now t.engine) ~src ~dst msg
    | None -> ());
    (* Offered traffic is counted at send time, injected faults or not. *)
    t.messages <- t.messages + 1;
    t.bytes <- t.bytes + size;
    let src_id = Xguard_proto.Node.id src in
    if src_id >= Array.length t.bytes_by_src then
      t.bytes_by_src <- grown t.bytes_by_src src_id 0;
    t.bytes_by_src.(src_id) <- t.bytes_by_src.(src_id) + size;
    if not t.fault_path then
      (* Fast path: no injector, script or wire cut installed — skip the
         fault plan entirely; one schedule, no [plan] allocation (PR 4). *)
      schedule_delivery t ~src ~dst ~at:(delivery_time t ~src ~dst) msg handler
    else
      match fault_plan t msg with
      | Lose -> ()
      | Deliver { payload; copies; extra } ->
          (* [delivery_time] keeps its FIFO bookkeeping on the base time; an
             injected extra delay is applied to the schedule only, so a jittered
             message can be overtaken — that is the modelled misbehaviour. *)
          let at = delivery_time t ~src ~dst + extra in
          for copy = 0 to copies - 1 do
            schedule_delivery t ~src ~dst ~at:(at + copy) payload handler
          done

  let messages_sent t = t.messages
  let bytes_sent t = t.bytes

  let bytes_from t node =
    let id = Xguard_proto.Node.id node in
    if id < Array.length t.bytes_by_src then t.bytes_by_src.(id) else 0

  let set_monitor t f = t.monitor <- Some f
  let set_tracer t f = t.tracer <- Some f

  (* ---- model-checker support ---- *)

  let enable_check_mode t ?ctrl_of ~addr_of () =
    t.check_addr <- Some addr_of;
    (match ctrl_of with Some f -> t.check_ctrl <- f | None -> ());
    if t.inflight = None then t.inflight <- Some (Int_table.create 16)

  let set_delay_chooser t f = t.delay_chooser <- Some f

  (* In-flight entries order by relative delivery time, source,
     destination, then text. *)
  let compare_inflight (d1, s1, t1, x1) (d2, s2, t2, x2) =
    match Int.compare d1 d2 with
    | 0 -> (
        match Int.compare s1 s2 with
        | 0 -> ( match Int.compare t1 t2 with 0 -> String.compare x1 x2 | c -> c)
        | c -> c)
    | c -> c

  let check_fingerprint t buf =
    let now = Engine.now t.engine in
    (match t.inflight with
    | Some table when Int_table.length table > 0 ->
        let text msg = match t.tracer with Some describe -> snd (describe msg) | None -> "" in
        Int_table.fold
          (fun _ (at, src, dst, msg) acc -> (at - now, src, dst, text msg) :: acc)
          table []
        |> List.sort compare_inflight
        |> List.iter (fun (dt, src, dst, text) ->
               Fp.key buf 'm' dt;
               Fp.field_int buf src;
               Fp.key buf '>' dst;
               Fp.field buf text;
               Buffer.add_char buf ';')
    | _ -> ());
    (* FIFO release times still in the future gate the delivery time of the
       next send on that (src,dst) pair, so they are architecturally visible;
       past entries are inert and must not distinguish states.  Each is keyed
       [src * 65536 + dst]; walking rows then columns in ascending id order
       writes the keys in ascending order. *)
    Array.iteri
      (fun src row ->
        Array.iteri
          (fun dst at ->
            if at > now then begin
              Fp.key buf 'f' ((src * 65536) + dst);
              Fp.field_int buf (at - now);
              Buffer.add_char buf ';'
            end)
          row)
      t.fifo
end
