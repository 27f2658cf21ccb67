module Engine = Xguard_sim.Engine
module Group = Xguard_stats.Counter.Group
module Xg_core = Xguard_xg.Xg_core
module Obs = Xguard_obs.Obs
module Spans = Xguard_obs.Spans

type get_tbe = {
  want : [ `S | `S_only | `M ];
  mutable data : Data.t option;
  mutable grant : Msg.grant option;
  mutable acks_expected : int option;
  mutable acks_got : int;
  mutable born : Engine.time;  (* issue time, for spans *)
}

type put_rec = {
  data : Data.t;
  dirty : bool;
  notify_core : bool;
  is_owner : bool;
  born : Engine.time;  (* issue time, for spans *)
}

(* Fallback span transaction type when no crossing is open on the block. *)
let span_txn_of_want = function
  | `M -> Spans.Get_m
  | `S | `S_only -> Spans.Get_s

type t = {
  engine : Engine.t;
  net : Net.t;
  name : string;
  node : Node.t;
  l2 : Node.t;
  mutable core : Xg_core.t option;
  tbes : get_tbe Tbe_table.t;
  puts : put_rec Int_table.t;
  stats : Group.t;
  sid : Group.id array; (* adopted hot stat counters, in [hot_stats] order *)
}

(* Hot per-event stat counters: a vocabulary hashed once per process, adopted
   by each instance's fresh stats group (no name is hashed per build). *)
let hot_stats =
  Group.vocab
    [|
      "get_complete"; "fwd.GetS"; "fwd.GetS_only"; "fwd.GetM"; "writeback_complete"; "put_issued";
      "inv"; "recall";
    |]

let node t = t.node
let stats t = t.stats
let attach_core t core = t.core <- Some core
let outstanding t = Tbe_table.count t.tbes + Int_table.length t.puts

let core t =
  match t.core with
  | Some c -> c
  | None -> failwith (t.name ^ ": no Xg_core attached")

let send t ~dst body addr =
  let msg = { Msg.addr; body } in
  Net.send t.net ~src:t.node ~dst ~size:(Msg.size msg) msg

(* ---- host_port operations ---- *)

let issue_get t addr kind =
  let tbe =
    { want = kind; data = None; grant = None; acks_expected = None; acks_got = 0;
      born = Engine.now t.engine }
  in
  (match Tbe_table.alloc t.tbes addr tbe with
  | `Ok -> ()
  | `Busy | `Full -> failwith (t.name ^ ": get while transaction open"));
  let msg_kind =
    match kind with `M -> Msg.Get_m | `S -> Msg.Get_s | `S_only -> Msg.Get_s_only
  in
  send t ~dst:t.l2 (Msg.Get { kind = msg_kind }) addr

let issue_put t addr kind =
  let born = Engine.now t.engine in
  (match kind with
  | `S ->
      Int_table.replace t.puts addr
        { data = Data.zero; dirty = false; notify_core = true; is_owner = false; born };
      send t ~dst:t.l2 Msg.Put_s addr
  | `E data ->
      Int_table.replace t.puts addr
        { data; dirty = false; notify_core = true; is_owner = true; born };
      send t ~dst:t.l2 (Msg.Put_m { data; dirty = false }) addr
  | `M data ->
      Int_table.replace t.puts addr
        { data; dirty = true; notify_core = true; is_owner = true; born };
      send t ~dst:t.l2 (Msg.Put_m { data; dirty = true }) addr);
  Group.incr_id t.stats t.sid.(5) (* put_issued *)

let host_port t =
  {
    Xg_core.get = (fun addr kind -> issue_get t addr kind);
    Xg_core.put = (fun addr kind -> issue_put t addr kind);
    Xg_core.puts_needed = true;
    Xg_core.has_get_s_only = true;
  }

(* ---- get completion ---- *)

let try_complete t addr (tbe : get_tbe) =
  match (tbe.data, tbe.grant, tbe.acks_expected) with
  | Some data, Some grant, Some expected when tbe.acks_got >= expected ->
      Tbe_table.dealloc t.tbes addr;
      send t ~dst:t.l2 Msg.Unblock addr;
      Group.incr_id t.stats t.sid.(0) (* get_complete *);
      (match Obs.spans () with
      | Some sr ->
          Spans.host_segment sr Spans.Host_fetch ~addr:(Addr.to_int addr) ~born:tbe.born
            ~now:(Engine.now t.engine) ~txn:(span_txn_of_want tbe.want) ()
      | None -> ());
      let g =
        match grant with
        | Msg.Grant_s -> `S data
        | Msg.Grant_e -> `E data
        | Msg.Grant_m -> `M data
      in
      Xg_core.granted (core t) addr g
  | _ -> ()

(* ---- host-initiated requests ---- *)

let zero_data_response t addr ~requestor (kind : Msg.get_kind) =
  (* The host expects data from us and the accelerator produced none the core
     could trust: substitute a zeroed block so the requestor completes
     (paper §2.2, Guarantee 2).  The OS has already been alerted. *)
  Group.incr t.stats "zero_data_substituted";
  match kind with
  | Msg.Get_m ->
      send t ~dst:requestor
        (Msg.Owner_data { data = Data.zero; dirty = false; grant = Msg.Grant_m })
        addr
  | Msg.Get_s | Msg.Get_s_only ->
      send t ~dst:requestor
        (Msg.Owner_data { data = Data.zero; dirty = false; grant = Msg.Grant_s })
        addr;
      send t ~dst:t.l2 (Msg.Copyback { data = Data.zero; dirty = false }) addr

let handle_inv t addr ~reply_to =
  Group.incr_id t.stats t.sid.(6) (* inv *);
  match Int_table.find_opt t.puts addr with
  | Some _ ->
      (* Our writeback is in flight; the accelerator already relinquished. *)
      send t ~dst:reply_to Msg.Inv_ack addr
  | None ->
      Xg_core.host_request (core t) addr ~need:Xg_core.Fwd_m ~reply:(fun reply ->
          match reply with
          | Xg_core.Reply_ack _ -> send t ~dst:reply_to Msg.Inv_ack addr
          | Xg_core.Reply_clean data | Xg_core.Reply_dirty data ->
              (* A writeback instead of an InvAck (transactional mode cannot
                 correct it): forward the data to the L2, which acks the
                 requestor on our behalf (paper §3.2.2). *)
              let dirty = match reply with Xg_core.Reply_dirty _ -> true | _ -> false in
              Group.incr t.stats "wb_instead_of_invack";
              send t ~dst:t.l2 (Msg.Copyback { data; dirty }) addr)

let handle_recall t addr =
  Group.incr_id t.stats t.sid.(7) (* recall *);
  match Int_table.find_opt t.puts addr with
  | Some p when p.is_owner ->
      send t ~dst:t.l2 (Msg.Recall_data { data = p.data; dirty = p.dirty }) addr
  | Some _ | None ->
      Xg_core.host_request (core t) addr ~need:Xg_core.Recall ~reply:(fun reply ->
          match reply with
          | Xg_core.Reply_ack _ -> send t ~dst:t.l2 Msg.Recall_ack addr
          | Xg_core.Reply_clean data -> send t ~dst:t.l2 (Msg.Recall_data { data; dirty = false }) addr
          | Xg_core.Reply_dirty data -> send t ~dst:t.l2 (Msg.Recall_data { data; dirty = true }) addr)

let handle_fwd t addr (kind : Msg.get_kind) ~requestor =
  Group.incr_id t.stats
    t.sid.(match kind with Msg.Get_s -> 1 | Msg.Get_s_only -> 2 | Msg.Get_m -> 3);
  match Int_table.find_opt t.puts addr with
  | Some p when p.is_owner -> (
      match kind with
      | Msg.Get_m ->
          send t ~dst:requestor
            (Msg.Owner_data { data = p.data; dirty = p.dirty; grant = Msg.Grant_m })
            addr
      | Msg.Get_s | Msg.Get_s_only ->
          send t ~dst:requestor
            (Msg.Owner_data { data = p.data; dirty = false; grant = Msg.Grant_s })
            addr;
          send t ~dst:t.l2 (Msg.Copyback { data = p.data; dirty = p.dirty }) addr)
  | Some _ | None -> (
      match kind with
      | Msg.Get_m ->
          Xg_core.host_request (core t) addr ~need:Xg_core.Fwd_m ~reply:(fun reply ->
              match reply with
              | Xg_core.Reply_dirty data | Xg_core.Reply_clean data ->
                  let dirty = match reply with Xg_core.Reply_dirty _ -> true | _ -> false in
                  send t ~dst:requestor
                    (Msg.Owner_data { data; dirty; grant = Msg.Grant_m })
                    addr
              | Xg_core.Reply_ack _ -> zero_data_response t addr ~requestor Msg.Get_m)
      | Msg.Get_s | Msg.Get_s_only ->
          Xg_core.host_request (core t) addr ~need:Xg_core.Fwd_s ~reply:(fun reply ->
              match reply with
              | Xg_core.Reply_dirty data | Xg_core.Reply_clean data ->
                  let dirty = match reply with Xg_core.Reply_dirty _ -> true | _ -> false in
                  send t ~dst:requestor
                    (Msg.Owner_data { data; dirty = false; grant = Msg.Grant_s })
                    addr;
                  send t ~dst:t.l2 (Msg.Copyback { data; dirty }) addr
              | Xg_core.Reply_ack _ -> zero_data_response t addr ~requestor kind))

(* ---- writeback responses ---- *)

let span_put_done t addr (p : put_rec) =
  match Obs.spans () with
  | Some sr ->
      Spans.host_put_done sr ~addr:(Addr.to_int addr) ~born:p.born ~now:(Engine.now t.engine)
        ~notify_core:p.notify_core
  | None -> ()

let handle_wb_ack t addr =
  match Int_table.find_opt t.puts addr with
  | Some p ->
      Int_table.remove t.puts addr;
      Group.incr_id t.stats t.sid.(4) (* writeback_complete *);
      span_put_done t addr p;
      if p.notify_core then Xg_core.put_complete (core t) addr
  | None -> Group.incr t.stats "error.wb_ack_without_put"

let deliver t (msg : Msg.t) =
  let addr = msg.Msg.addr in
  match msg.Msg.body with
  | Msg.L2_data { data; grant; acks } -> (
      match Tbe_table.find t.tbes addr with
      | Some tbe ->
          tbe.data <- Some data;
          tbe.grant <- Some grant;
          tbe.acks_expected <- Some acks;
          try_complete t addr tbe
      | None -> Group.incr t.stats "error.grant_without_txn")
  | Msg.Owner_data { data; dirty = _; grant } -> (
      match Tbe_table.find t.tbes addr with
      | Some tbe ->
          tbe.data <- Some data;
          tbe.grant <- Some grant;
          tbe.acks_expected <- Some 0;
          try_complete t addr tbe
      | None -> Group.incr t.stats "error.owner_data_without_txn")
  | Msg.Inv_ack -> (
      match Tbe_table.find t.tbes addr with
      | Some tbe ->
          tbe.acks_got <- tbe.acks_got + 1;
          try_complete t addr tbe
      | None -> Group.incr t.stats "error.inv_ack_without_txn")
  | Msg.Inv { reply_to } -> handle_inv t addr ~reply_to
  | Msg.Recall -> handle_recall t addr
  | Msg.Fwd { kind; requestor } -> handle_fwd t addr kind ~requestor
  | Msg.Wb_ack -> handle_wb_ack t addr
  | Msg.Get _ | Msg.Put_s | Msg.Put_m _ | Msg.Unblock | Msg.Recall_data _ | Msg.Recall_ack
  | Msg.Copyback _ | Msg.Fetch | Msg.Mem_data _ | Msg.Mem_wb _ | Msg.Mem_wb_ack ->
      Group.incr t.stats "error.message_not_for_port"

(* ---- model-checker support ---- *)

let check_fingerprint t buf =
  Buffer.add_string buf "xport[";
  Buffer.add_string buf t.name;
  Buffer.add_char buf ']';
  Tbe_table.to_list t.tbes
  |> List.iter (fun (addr, (g : get_tbe)) ->
         Fp.key buf 't' (Addr.to_int addr);
         Fp.field buf (match g.want with `S -> "S" | `S_only -> "So" | `M -> "M");
         Fp.field_opt buf g.data;
         Fp.field buf (match g.grant with None -> "-" | Some gr -> Msg.grant_to_string gr);
         Fp.field_opt buf g.acks_expected;
         Fp.field_int buf g.acks_got;
         Buffer.add_char buf ';');
  Int_table.sorted_bindings t.puts
  |> List.iter (fun (addr, (p : put_rec)) ->
         Fp.key buf 'p' (Addr.to_int addr);
         Fp.field_int buf (p.data : Data.t);
         Fp.field_bool buf p.dirty;
         Fp.field_bool buf p.notify_core;
         Fp.field_bool buf p.is_owner;
         Buffer.add_char buf ';')

let create ~engine ~net ~name ~node ~l2 () =
  let stats = Group.create (name ^ ".stats") in
  let t =
    {
      engine;
      net;
      name;
      node;
      l2;
      core = None;
      tbes = Tbe_table.create ~capacity:128 ();
      puts = Int_table.create 16;
      stats;
      sid = Group.adopt stats hot_stats;
    }
  in
  Net.register net node (fun ~src:_ msg -> deliver t msg);
  Option.iter
    (fun sr -> Spans.add_gauge sr ~name:(name ^ ".outstanding") (fun () -> outstanding t))
    (Obs.spans ());
  t
