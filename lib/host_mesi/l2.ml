module Engine = Xguard_sim.Engine
module Group = Xguard_stats.Counter.Group
module Trace = Xguard_trace.Trace
module Obs = Xguard_obs.Obs
module Coverage = Xguard_trace.Coverage

type variant = Baseline | Xg_ready

exception Protocol_error of string

type holders = No_l1 | Sharers of Node.t list | Owned of Node.t

type line = { mutable data : Data.t; mutable dirty : bool; mutable holders : holders }

type txn =
  | Fetching of { kind : Msg.get_kind; requestor : Node.t }
  | Direct of { requestor : Node.t }
  | Via_owner of {
      requestor : Node.t;
      kind : Msg.get_kind;
      mutable got_unblock : bool;
      mutable need_copyback : bool;
    }
  | Evicting of { mutable acks_left : int }
  | Wb_mem

type queued = { src : Node.t; body : Msg.body }

type t = {
  engine : Engine.t;
  net : Net.t;
  name : string;
  node : Node.t;
  memctrl : Node.t;
  variant : variant;
  l2_latency : int;
  sets : int;
  array : line Cache_array.t;
  busy_table : txn Int_table.t;
  waiting : queued Queue.t Int_table.t;
  space_waiters : queued Queue.t Int_table.t;  (* keyed by set index *)
  space_addr : Addr.t Queue.t Int_table.t;  (* parallel queue of addresses *)
  stats : Group.t;
  sid : Group.id array; (* adopted hot stat counters, in [hot_stats] order *)
  coverage : Group.t;
  covm : Coverage.matrix;
}

let node t = t.node
let stats t = t.stats
let coverage t = t.coverage
let busy t addr = Int_table.mem t.busy_table addr
let open_transactions t = Int_table.length t.busy_table
let resident t = Cache_array.count t.array

let probe t addr =
  match Cache_array.find t.array addr with
  | None -> `Absent
  | Some { holders = No_l1; _ } -> `No_l1
  | Some { holders = Sharers sh; _ } -> `Sharers (List.length sh)
  | Some { holders = Owned o; _ } -> `Owned o

let set_index t addr = addr land (t.sets - 1)

let send t ~dst body addr =
  let msg = { Msg.addr; body } in
  Net.send t.net ~src:t.node ~dst ~size:(Msg.size msg) msg

(* Hot per-event stat counters: a vocabulary hashed once per process, adopted
   by each instance's fresh stats group (no name is hashed per build). *)
let hot_stats =
  Group.vocab
    [| "stalled_busy"; "stalled_for_space"; "l2_miss"; "l2_eviction"; "put_s"; "put_m"; "put_sunk" |]

(* State/event indices into [coverage_space]'s lists (PR 4). *)
let state_names =
  [| "NP"; "NoL1"; "SS"; "MT"; "Fetching"; "Direct"; "ViaOwner"; "Evicting"; "WbMem" |]

let state_idx t addr =
  match Int_table.find_opt t.busy_table addr with
  | Some txn -> (
      match txn with
      | Fetching _ -> 4
      | Direct _ -> 5
      | Via_owner _ -> 6
      | Evicting _ -> 7
      | Wb_mem -> 8)
  | None -> (
      match Cache_array.find t.array addr with
      | None -> 0 (* NP *)
      | Some line -> (
          match line.holders with No_l1 -> 1 | Sharers _ -> 2 | Owned _ -> 3))

let event_names =
  [|
    "grant.GetS"; "grant.GetS_only"; "grant.GetM"; "Replacement"; "PutS"; "PutM";
    "Unblock"; "Copyback"; "MemData";
  |]

let e_repl = 3
let e_put_s = 4
let e_put_m = 5
let e_unblock = 6
let e_copyback = 7
let e_mem_data = 8
let event_of_grant = function Msg.Get_s -> 0 | Msg.Get_s_only -> 1 | Msg.Get_m -> 2

let visit t addr event =
  let state = state_idx t addr in
  Coverage.hit t.covm ~state ~event;
  match Obs.trace () with
  | Some tr ->
      Trace.transition tr ~cycle:(Engine.now t.engine) ~controller:t.name
        ~addr:(Addr.to_int addr) ~state:state_names.(state) ~event:event_names.(event) ()
  | None -> ()

let coverage_space =
  let resident = [ "NoL1"; "SS"; "MT" ] in
  let possible state event =
    match event with
    | "grant.GetS" | "grant.GetS_only" | "grant.GetM" | "Replacement" ->
        List.mem state resident
    | "PutS" | "PutM" -> state = "NP" || List.mem state resident
    | "Unblock" -> state = "Direct" || state = "ViaOwner"
    | "Copyback" -> state = "ViaOwner"
    | "MemData" -> state = "Fetching"
    | _ -> false
  in
  Xguard_trace.Coverage.space ~name:"mesi.l2"
    ~states:[ "NP"; "NoL1"; "SS"; "MT"; "Fetching"; "Direct"; "ViaOwner"; "Evicting"; "WbMem" ]
    ~events:
      [ "grant.GetS"; "grant.GetS_only"; "grant.GetM"; "Replacement"; "PutS"; "PutM";
        "Unblock"; "Copyback"; "MemData" ]
    ~possible ()

let error t what =
  Group.incr t.stats ("error." ^ what);
  match t.variant with
  | Baseline -> raise (Protocol_error (t.name ^ ": " ^ what))
  | Xg_ready -> ()

(* ------- queues ------- *)

let enqueue_addr t addr q =
  let queue =
    match Int_table.find_opt t.waiting addr with
    | Some queue -> queue
    | None ->
        let queue = Queue.create () in
        Int_table.replace t.waiting addr queue;
        queue
  in
  Group.incr_id t.stats t.sid.(0) (* stalled_busy *);
  Queue.push q queue

let enqueue_space t addr q =
  let idx = set_index t addr in
  let queue, addr_queue =
    match (Int_table.find_opt t.space_waiters idx, Int_table.find_opt t.space_addr idx) with
    | Some queue, Some addr_queue -> (queue, addr_queue)
    | _ ->
        let queue = Queue.create () and addr_queue = Queue.create () in
        Int_table.replace t.space_waiters idx queue;
        Int_table.replace t.space_addr idx addr_queue;
        (queue, addr_queue)
  in
  Group.incr_id t.stats t.sid.(1) (* stalled_for_space *);
  Queue.push q queue;
  Queue.push addr addr_queue

(* ------- transaction machinery ------- *)

let rec process t addr ({ src; body } as q) =
  match body with
  | Msg.Get { kind } -> process_get t addr q kind ~requestor:src
  | Msg.Put_s -> process_put_s t addr ~src
  | Msg.Put_m { data; dirty } -> process_put_m t addr ~src ~data ~dirty
  | _ -> assert false

and grant t addr (line : line) (kind : Msg.get_kind) ~requestor =
  visit t addr (event_of_grant kind);
  match line.holders with
  | Owned owner when not (Node.equal owner requestor) ->
      send t ~dst:owner (Msg.Fwd { kind; requestor }) addr;
      let need_copyback = kind <> Msg.Get_m in
      (match kind with
      | Msg.Get_m -> line.holders <- Owned requestor
      | Msg.Get_s | Msg.Get_s_only -> line.holders <- Sharers [ owner; requestor ]);
      Int_table.replace t.busy_table addr
        (Via_owner { requestor; kind; got_unblock = false; need_copyback })
  | Owned _ ->
      (* Requestor believes it misses while we record it owner: only a buggy
         party behind the XG port gets here.  Re-grant to keep the host live. *)
      error t "get_from_recorded_owner";
      let g = match kind with Msg.Get_m -> Msg.Grant_m | _ -> Msg.Grant_s in
      send t ~dst:requestor (Msg.L2_data { data = line.data; grant = g; acks = 0 }) addr;
      Int_table.replace t.busy_table addr (Direct { requestor })
  | Sharers sh -> (
      match kind with
      | Msg.Get_m ->
          let others = List.filter (fun n -> not (Node.equal n requestor)) sh in
          List.iter (fun n -> send t ~dst:n (Msg.Inv { reply_to = requestor }) addr) others;
          send t ~dst:requestor
            (Msg.L2_data { data = line.data; grant = Msg.Grant_m; acks = List.length others })
            addr;
          line.holders <- Owned requestor;
          Int_table.replace t.busy_table addr (Direct { requestor })
      | Msg.Get_s | Msg.Get_s_only ->
          send t ~dst:requestor
            (Msg.L2_data { data = line.data; grant = Msg.Grant_s; acks = 0 })
            addr;
          if not (List.exists (Node.equal requestor) sh) then
            line.holders <- Sharers (requestor :: sh);
          Int_table.replace t.busy_table addr (Direct { requestor }))
  | No_l1 ->
      let g, holders =
        match kind with
        | Msg.Get_m -> (Msg.Grant_m, Owned requestor)
        | Msg.Get_s -> (Msg.Grant_e, Owned requestor)
        | Msg.Get_s_only -> (Msg.Grant_s, Sharers [ requestor ])
      in
      send t ~dst:requestor (Msg.L2_data { data = line.data; grant = g; acks = 0 }) addr;
      line.holders <- holders;
      Int_table.replace t.busy_table addr (Direct { requestor })

and process_get t addr q kind ~requestor =
  match Cache_array.find t.array addr with
  | Some line ->
      Cache_array.touch t.array addr;
      grant t addr line kind ~requestor
  | None ->
      if Cache_array.has_room t.array addr then begin
        Group.incr_id t.stats t.sid.(2) (* l2_miss *);
        Cache_array.insert t.array addr { data = Data.zero; dirty = false; holders = No_l1 };
        Int_table.replace t.busy_table addr (Fetching { kind; requestor });
        send t ~dst:t.memctrl Msg.Fetch addr
      end
      else begin
        (* Park the request before touching the victim: a clean, unshared
           victim evicts synchronously and its close must find this request. *)
        enqueue_space t addr q;
        match Cache_array.victim t.array addr with
        | Some (victim_addr, victim_line) ->
            if not (busy t victim_addr) then start_eviction t victim_addr victim_line
        | None -> ()
      end

and start_eviction t victim_addr (line : line) =
  Group.incr_id t.stats t.sid.(3) (* l2_eviction *);
  visit t victim_addr e_repl;
  match line.holders with
  | Owned owner ->
      send t ~dst:owner Msg.Recall victim_addr;
      Int_table.replace t.busy_table victim_addr (Evicting { acks_left = 1 })
  | Sharers sh ->
      List.iter (fun n -> send t ~dst:n (Msg.Inv { reply_to = t.node }) victim_addr) sh;
      line.holders <- No_l1;
      if sh = [] then finish_eviction t victim_addr line
      else Int_table.replace t.busy_table victim_addr (Evicting { acks_left = List.length sh })
  | No_l1 -> finish_eviction t victim_addr line

and finish_eviction t victim_addr (line : line) =
  if line.dirty then begin
    Int_table.replace t.busy_table victim_addr Wb_mem;
    send t ~dst:t.memctrl (Msg.Mem_wb { data = line.data }) victim_addr
  end
  else begin
    Cache_array.remove t.array victim_addr;
    close t victim_addr
  end

and process_put_s t addr ~src =
  visit t addr e_put_s;
  (match Cache_array.find t.array addr with
  | Some ({ holders = Sharers sh; _ } as line) when List.exists (Node.equal src) sh ->
      let rest = List.filter (fun n -> not (Node.equal n src)) sh in
      line.holders <- (if rest = [] then No_l1 else Sharers rest);
      Group.incr_id t.stats t.sid.(4) (* put_s *)
  | Some _ | None -> Group.incr_id t.stats t.sid.(6) (* put_sunk *));
  send t ~dst:src Msg.Wb_ack addr;
  (* Puts open no transaction; drain whatever queued behind this message. *)
  close t addr

and process_put_m t addr ~src ~data ~dirty =
  visit t addr e_put_m;
  (match Cache_array.find t.array addr with
  | Some ({ holders = Owned owner; _ } as line) when Node.equal owner src ->
      line.data <- data;
      line.dirty <- line.dirty || dirty;
      line.holders <- No_l1;
      Group.incr_id t.stats t.sid.(5) (* put_m *)
  | Some ({ holders = Sharers sh; _ } as line) when List.exists (Node.equal src) sh ->
      (* A Put from a cache we demoted to sharer during a racing read fwd;
         its data is already stale.  Drop the data, drop the sharer. *)
      let rest = List.filter (fun n -> not (Node.equal n src)) sh in
      line.holders <- (if rest = [] then No_l1 else Sharers rest);
      Group.incr_id t.stats t.sid.(6) (* put_sunk *)
  | Some _ | None -> Group.incr_id t.stats t.sid.(6) (* put_sunk *));
  send t ~dst:src Msg.Wb_ack addr;
  close t addr

and close t addr =
  Int_table.remove t.busy_table addr;
  (* First serve requests queued on this address...  Drained queues are
     removed from their tables (not merely left empty): inert either way, but
     lingering empties would make fingerprints path-dependent. *)
  (match Int_table.find_opt t.waiting addr with
  | Some queue when Queue.is_empty queue -> Int_table.remove t.waiting addr
  | Some queue ->
      let next = Queue.pop queue in
      if Queue.is_empty queue then Int_table.remove t.waiting addr;
      Engine.schedule t.engine ~delay:t.l2_latency
        ~tag:(Engine.pack_tag ~ctrl:(Node.id t.node) ~addr:(Addr.to_int addr))
        (fun () ->
          if busy t addr then enqueue_addr t addr next else process t addr next)
  | None -> ());
  (* ...then retry requests that were stalled for space in this set. *)
  let idx = set_index t addr in
  match (Int_table.find_opt t.space_waiters idx, Int_table.find_opt t.space_addr idx) with
  | Some queue, Some addr_queue when Queue.is_empty queue ->
      Int_table.remove t.space_waiters idx;
      ignore addr_queue;
      Int_table.remove t.space_addr idx
  | Some queue, Some addr_queue ->
      let q = Queue.pop queue in
      let qaddr = Queue.pop addr_queue in
      if Queue.is_empty queue then begin
        Int_table.remove t.space_waiters idx;
        Int_table.remove t.space_addr idx
      end;
      Engine.schedule t.engine ~delay:t.l2_latency
        ~tag:(Engine.pack_tag ~ctrl:(Node.id t.node) ~addr:(Addr.to_int qaddr))
        (fun () ->
          if busy t qaddr then enqueue_addr t qaddr q else process t qaddr q)
  | _ -> ()

(* ------- message handling ------- *)

let handle_unblock t addr ~src =
  match Int_table.find_opt t.busy_table addr with
  | Some (Direct { requestor }) when Node.equal requestor src ->
      visit t addr e_unblock;
      close t addr
  | Some (Via_owner v) when Node.equal v.requestor src ->
      visit t addr e_unblock;
      v.got_unblock <- true;
      if not v.need_copyback then close t addr
  | Some _ | None -> error t "unexpected_unblock"

let handle_copyback t addr ~src ~data ~dirty =
  ignore src;
  match Int_table.find_opt t.busy_table addr with
  | Some (Via_owner v) when v.need_copyback -> (
      visit t addr e_copyback;
      (match Cache_array.find t.array addr with
      | Some line ->
          line.data <- data;
          line.dirty <- line.dirty || dirty
      | None -> error t "copyback_for_absent_line");
      v.need_copyback <- false;
      if v.got_unblock then close t addr)
  | Some (Direct { requestor }) ->
      (* Paper, section 3.2.2: a buggy holder answered an Inv with a
         writeback; the (modified) L2 acks the requestor on its behalf. *)
      error t "copyback_during_direct_txn";
      Group.incr t.stats "ack_on_behalf";
      send t ~dst:requestor Msg.Inv_ack addr
  | Some _ | None -> error t "unexpected_copyback"

let handle_eviction_response t addr ~(is_data : (Data.t * bool) option) =
  match Int_table.find_opt t.busy_table addr with
  | Some (Evicting e) -> (
      (match is_data with
      | Some (data, dirty) -> (
          match Cache_array.find t.array addr with
          | Some line ->
              line.data <- data;
              line.dirty <- line.dirty || dirty;
              line.holders <- No_l1
          | None -> error t "recall_data_for_absent_line")
      | None -> ());
      e.acks_left <- e.acks_left - 1;
      if e.acks_left <= 0 then
        match Cache_array.find t.array addr with
        | Some line -> finish_eviction t addr line
        | None -> error t "eviction_finished_without_line")
  | Some _ | None -> error t "unexpected_eviction_response"

let deliver t ~src (msg : Msg.t) =
  let addr = msg.Msg.addr in
  match msg.Msg.body with
  | Msg.Get _ | Msg.Put_s | Msg.Put_m _ ->
      let q = { src; body = msg.Msg.body } in
      if busy t addr then enqueue_addr t addr q
      else
        Engine.schedule t.engine ~delay:t.l2_latency
          ~tag:(Engine.pack_tag ~ctrl:(Node.id t.node) ~addr:(Addr.to_int addr))
          (fun () ->
            if busy t addr then enqueue_addr t addr q else process t addr q)
  | Msg.Unblock -> handle_unblock t addr ~src
  | Msg.Copyback { data; dirty } -> handle_copyback t addr ~src ~data ~dirty
  | Msg.Recall_data { data; dirty } -> handle_eviction_response t addr ~is_data:(Some (data, dirty))
  | Msg.Recall_ack ->
      (* Ack/data equivalence (the paper's MESI modification). *)
      if t.variant = Baseline then error t "recall_ack_instead_of_data";
      handle_eviction_response t addr ~is_data:None
  | Msg.Inv_ack -> handle_eviction_response t addr ~is_data:None
  | Msg.Mem_data { data } -> (
      match Int_table.find_opt t.busy_table addr with
      | Some (Fetching { kind; requestor }) -> (
          visit t addr e_mem_data;
          match Cache_array.find t.array addr with
          | Some line ->
              line.data <- data;
              Int_table.remove t.busy_table addr;
              grant t addr line kind ~requestor
          | None -> error t "mem_data_for_absent_line")
      | Some _ | None -> error t "unexpected_mem_data")
  | Msg.Mem_wb_ack -> (
      match Int_table.find_opt t.busy_table addr with
      | Some Wb_mem ->
          Cache_array.remove t.array addr;
          close t addr
      | Some _ | None -> error t "unexpected_mem_wb_ack")
  | Msg.L2_data _ | Msg.Wb_ack | Msg.Inv _ | Msg.Recall | Msg.Fwd _ | Msg.Owner_data _
  | Msg.Fetch | Msg.Mem_wb _ ->
      error t "message_not_for_l2"

let create ~engine ~net ~name ~node ~memctrl ~variant ~sets ~ways ?(l2_latency = 8) () =
  let stats = Group.create (name ^ ".stats") in
  let coverage = Group.create (name ^ ".coverage") in
  let t =
    {
      engine;
      net;
      name;
      node;
      memctrl;
      variant;
      l2_latency;
      sets;
      array = Cache_array.create ~sets ~ways ();
      busy_table = Int_table.create 16;
      waiting = Int_table.create 16;
      space_waiters = Int_table.create 16;
      space_addr = Int_table.create 16;
      stats;
      sid = Group.adopt stats hot_stats;
      coverage;
      covm = Coverage.intern_matrix coverage_space coverage;
    }
  in
  Net.register net node (fun ~src msg -> deliver t ~src msg);
  t

(* ---- model-checker support ---- *)

let check_queue_tables t =
  Int_table.length t.waiting + Int_table.length t.space_waiters + Int_table.length t.space_addr

let check_own_copies t f =
  Cache_array.iter
    (fun addr (line : line) ->
      match line.holders with
      | Owned _ -> ()
      | No_l1 | Sharers _ -> f addr (if line.dirty then `O else `S) line.data)
    t.array

let check_lines t =
  Cache_array.to_list t.array
  |> List.map (fun (addr, (line : line)) ->
         let h =
           match line.holders with
           | No_l1 -> `No_l1
           | Sharers sh -> `Sharers sh
           | Owned o -> `Owned o
         in
         (addr, h, line.data, line.dirty))
  |> List.sort (fun (a, _, _, _) (b, _, _, _) -> Addr.compare a b)

let check_fingerprint t buf =
  Buffer.add_string buf "l2[";
  Buffer.add_string buf t.name;
  Buffer.add_char buf ']';
  Cache_array.to_list t.array
  |> List.sort (fun (a, _) (b, _) -> Addr.compare a b)
  |> List.iter (fun (addr, (line : line)) ->
         Fp.key buf 'a' (Addr.to_int addr);
         Fp.field_int buf (line.data : Data.t);
         Fp.field_bool buf line.dirty;
         Buffer.add_char buf ':';
         (match line.holders with
         | No_l1 -> Buffer.add_char buf 'n'
         | Sharers sh ->
             Buffer.add_char buf 's';
             List.map Node.id sh |> List.sort Int.compare
             |> List.iter (fun n -> Fp.key buf ',' n)
         | Owned o -> Fp.key buf 'o' (Node.id o));
         Buffer.add_char buf ';');
  Int_table.sorted_bindings t.busy_table
  |> List.iter (fun (addr, txn) ->
         Fp.key buf 'b' (Addr.to_int addr);
         Buffer.add_char buf ':';
         (match txn with
         | Fetching { kind; requestor } ->
             Buffer.add_char buf 'F';
             Buffer.add_string buf (Msg.get_kind_to_string kind);
             Fp.field_int buf (Node.id requestor)
         | Direct { requestor } -> Fp.key buf 'D' (Node.id requestor)
         | Via_owner { requestor; kind; got_unblock; need_copyback } ->
             Buffer.add_char buf 'V';
             Buffer.add_string buf (Msg.get_kind_to_string kind);
             Fp.field_int buf (Node.id requestor);
             Fp.field_bool buf got_unblock;
             Fp.field_bool buf need_copyback
         | Evicting { acks_left } -> Fp.key buf 'E' acks_left
         | Wb_mem -> Buffer.add_char buf 'W');
         Buffer.add_char buf ';');
  (* One parked request: "<src>><message>,". *)
  let parked addr { src; body } =
    Fp.int buf (Node.id src);
    Buffer.add_char buf '>';
    Msg.add_text buf { Msg.addr; body };
    Buffer.add_char buf ','
  in
  Int_table.sorted_bindings t.waiting
  |> List.iter (fun (addr, q) ->
         Fp.key buf 'w' (Addr.to_int addr);
         Buffer.add_char buf ':';
         Queue.iter (parked addr) q;
         Buffer.add_char buf ';');
  Int_table.sorted_bindings t.space_waiters
  |> List.iter (fun (idx, q) ->
         Fp.key buf 'z' idx;
         Buffer.add_char buf ':';
         let addr_q =
           match Int_table.find_opt t.space_addr idx with
           | Some aq -> Queue.to_seq aq |> List.of_seq
           | None -> []
         in
         List.iter2 parked addr_q (Queue.to_seq q |> List.of_seq);
         Buffer.add_char buf ';')
