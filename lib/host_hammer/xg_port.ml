module Engine = Xguard_sim.Engine
module Group = Xguard_stats.Counter.Group
module Xg_core = Xguard_xg.Xg_core
module Obs = Xguard_obs.Obs
module Spans = Xguard_obs.Spans

type get_tbe = {
  kind : Msg.get_kind;
  mutable peers_left : int;
  mutable mem_data : Data.t option;
  mutable peer_data : Data.t option;
  mutable shared_seen : bool;
  mutable born : Engine.time;  (* issue (or deferral-promotion) time, for spans *)
}

(* A writeback in flight to the directory.  [notify_core] distinguishes
   accelerator-initiated puts (the core is waiting for completion) from the
   port's own ownership relinquishments after a forwarded GetS. *)
type put_rec = {
  mutable data : Data.t;
  mutable dirty : bool;
  mutable lost_ownership : bool;
  notify_core : bool;
  is_owner : bool;  (* false for an unnecessary PutS: we hold no data *)
  born : Engine.time;  (* issue (or deferral) time, for spans *)
}

(* Fallback span transaction type when no crossing is open on the block. *)
let span_txn_of_kind = function
  | Msg.Get_m -> Spans.Get_m
  | Msg.Get_s | Msg.Get_s_only -> Spans.Get_s

type t = {
  engine : Engine.t;
  net : Net.t;
  name : string;
  node : Node.t;
  directory : Addr.t -> Node.t;
  use_get_s_only : bool;
  mutable core : Xg_core.t option;
  mutable peer_count : int;
  tbes : get_tbe Tbe_table.t;
  puts : put_rec Int_table.t;
  deferred_puts : put_rec Int_table.t;
  deferred_gets : Msg.get_kind Int_table.t;
  stats : Group.t;
  sid : Group.id array; (* adopted hot stat counters, in [hot_stats] order *)
}

(* Hot per-event stat counters: a vocabulary hashed once per process, adopted
   by each instance's fresh stats group (no name is hashed per build). *)
let hot_stats =
  Group.vocab
    [| "get_complete"; "fwd.GetS"; "fwd.GetS_only"; "fwd.GetM"; "writeback_complete" |]

let node t = t.node
let stats t = t.stats
let set_peer_count t n = t.peer_count <- n
let attach_core t core = t.core <- Some core
let outstanding t = Tbe_table.count t.tbes + Int_table.length t.puts

let core t =
  match t.core with
  | Some c -> c
  | None -> failwith (t.name ^ ": no Xg_core attached")

let send t ~dst body addr =
  let msg = { Msg.addr; body } in
  Net.send t.net ~src:t.node ~dst ~size:(Msg.size msg) msg

(* ---- host_port operations called by the core ---- *)

let issue_get t addr kind =
  let msg_kind =
    match kind with
    | `M -> Msg.Get_m
    | `S -> Msg.Get_s
    | `S_only -> if t.use_get_s_only then Msg.Get_s_only else Msg.Get_s
  in
  let tbe =
    {
      kind = msg_kind;
      peers_left = t.peer_count;
      mem_data = None;
      peer_data = None;
      shared_seen = false;
      born = Engine.now t.engine;
    }
  in
  (match Tbe_table.alloc t.tbes addr tbe with
  | `Ok -> ()
  | `Busy | `Full -> failwith (t.name ^ ": get while transaction open"));
  if Int_table.mem t.puts addr then begin
    (* A writeback of this block (possibly our own ownership relinquishment,
       which the guard core does not see) is still in flight.  Re-requesting
       now could let the stale Put clear our fresh ownership at the directory
       later; wait for the writeback to settle, like any host cache would. *)
    Group.incr t.stats "get_deferred_behind_put";
    Int_table.replace t.deferred_gets addr msg_kind
  end
  else send t ~dst:(t.directory addr) (Msg.Get { kind = msg_kind }) addr

let start_put t addr ~data ~dirty ~notify_core ~is_owner =
  let p =
    { data; dirty; lost_ownership = false; notify_core; is_owner; born = Engine.now t.engine }
  in
  if Int_table.mem t.puts addr then begin
    (* A Put handshake for this block is already open.  This happens when a
       core-initiated put and an ownership relinquishment (handle_fwd) race
       on one address.  Issuing a second Put would send two handshakes but
       leave only one record: the first directory response consumes the
       overwritten record — losing its [notify_core] bit, wedging the guard
       core in B_put — and the second response finds no record at all.
       Defer instead, like [issue_get] defers gets behind puts, and promote
       in [finish_put]. *)
    Group.incr t.stats "put_deferred_behind_put";
    Int_table.replace t.deferred_puts addr p
  end
  else begin
    Int_table.replace t.puts addr p;
    send t ~dst:(t.directory addr) Msg.Put addr
  end

let issue_put t addr kind =
  match kind with
  | `S ->
      (* The Hammer host evicts shared blocks silently; an explicit Put from
         the guard is the "unnecessary PutS" the paper quantifies.  The
         directory Nacks it (we are not the owner) and we complete. *)
      start_put t addr ~data:Data.zero ~dirty:false ~notify_core:true ~is_owner:false
  | `E data -> start_put t addr ~data ~dirty:false ~notify_core:true ~is_owner:true
  | `M data -> start_put t addr ~data ~dirty:true ~notify_core:true ~is_owner:true

let host_port t =
  {
    Xg_core.get = (fun addr kind -> issue_get t addr kind);
    Xg_core.put = (fun addr kind -> issue_put t addr kind);
    Xg_core.puts_needed = false;
    Xg_core.has_get_s_only = t.use_get_s_only;
  }

(* ---- get completion ---- *)

let try_complete t addr (tbe : get_tbe) =
  if tbe.peers_left = 0 && tbe.mem_data <> None then begin
    let received =
      match tbe.peer_data with
      | Some d -> d
      | None -> ( match tbe.mem_data with Some d -> d | None -> assert false)
    in
    let grant, exclusive =
      match tbe.kind with
      | Msg.Get_m -> (`M received, true)
      | Msg.Get_s ->
          if tbe.peer_data <> None || tbe.shared_seen then (`S received, false)
          else (`E received, true)
      | Msg.Get_s_only -> (`S received, false)
    in
    Tbe_table.dealloc t.tbes addr;
    send t ~dst:(t.directory addr) (Msg.Unblock { exclusive }) addr;
    Group.incr_id t.stats t.sid.(0) (* get_complete *);
    (match Obs.spans () with
    | Some sr ->
        Spans.host_segment sr Spans.Host_fetch ~addr:(Addr.to_int addr) ~born:tbe.born
          ~now:(Engine.now t.engine) ~txn:(span_txn_of_kind tbe.kind) ()
    | None -> ());
    Xg_core.granted (core t) addr grant
  end

let handle_response t addr (body : Msg.body) =
  match Tbe_table.find t.tbes addr with
  | None -> Group.incr t.stats "error.response_without_txn"
  | Some tbe ->
      (match body with
      | Msg.Mem_data { data } -> tbe.mem_data <- Some data
      | Msg.Peer_ack { shared } ->
          tbe.peers_left <- tbe.peers_left - 1;
          if shared then tbe.shared_seen <- true
      | Msg.Peer_data { data; dirty = _ } ->
          (* Response counting (paper modification): a data message counts as
             a response whether or not one was expected. *)
          tbe.peers_left <- tbe.peers_left - 1;
          if tbe.peer_data = None then tbe.peer_data <- Some data
      | _ -> assert false);
      try_complete t addr tbe

(* ---- forwarded requests ---- *)

let respond_from_put t addr (p : put_rec) (kind : Msg.get_kind) ~requestor =
  if p.lost_ownership then
    (* II: ownership already forwarded away; our copy is stale. *)
    send t ~dst:requestor (Msg.Peer_ack { shared = false }) addr
  else begin
    send t ~dst:requestor (Msg.Peer_data { data = p.data; dirty = p.dirty }) addr;
    if kind = Msg.Get_m then p.lost_ownership <- true
  end

let handle_fwd t addr (kind : Msg.get_kind) ~requestor =
  Group.incr_id t.stats
    t.sid.(match kind with Msg.Get_s -> 1 | Msg.Get_s_only -> 2 | Msg.Get_m -> 3);
  match Int_table.find_opt t.puts addr with
  | Some p when p.is_owner -> respond_from_put t addr p kind ~requestor
  | Some _ | None -> (
      match kind with
      | Msg.Get_m ->
          Xg_core.host_request (core t) addr ~need:Xg_core.Fwd_m ~reply:(fun reply ->
              match reply with
              | Xg_core.Reply_ack { shared } ->
                  send t ~dst:requestor (Msg.Peer_ack { shared }) addr
              | Xg_core.Reply_clean data ->
                  send t ~dst:requestor (Msg.Peer_data { data; dirty = false }) addr
              | Xg_core.Reply_dirty data ->
                  send t ~dst:requestor (Msg.Peer_data { data; dirty = true }) addr)
      | Msg.Get_s | Msg.Get_s_only ->
          Xg_core.host_request (core t) addr ~need:Xg_core.Fwd_s ~reply:(fun reply ->
              match reply with
              | Xg_core.Reply_ack { shared } ->
                  send t ~dst:requestor (Msg.Peer_ack { shared }) addr
              | Xg_core.Reply_clean data | Xg_core.Reply_dirty data ->
                  let dirty = match reply with Xg_core.Reply_dirty _ -> true | _ -> false in
                  (* The interface has no owned-shared state: forward the
                     data, then relinquish ownership to the directory
                     (paper §3.2.1). *)
                  send t ~dst:requestor (Msg.Peer_data { data; dirty }) addr;
                  Group.incr t.stats "ownership_relinquished";
                  start_put t addr ~data ~dirty ~notify_core:false ~is_owner:true))

(* ---- writeback responses ---- *)

let span_put_done t addr (p : put_rec) =
  match Obs.spans () with
  | Some sr ->
      Spans.host_put_done sr ~addr:(Addr.to_int addr) ~born:p.born ~now:(Engine.now t.engine)
        ~notify_core:p.notify_core
  | None -> ()

let finish_put t addr (p : put_rec) =
  Int_table.remove t.puts addr;
  span_put_done t addr p;
  (* A deferred put takes the slot first; a deferred get stays parked behind
     it (and is re-checked when that put in turn finishes). *)
  (match Int_table.find_opt t.deferred_puts addr with
  | Some d ->
      Int_table.remove t.deferred_puts addr;
      (match Obs.spans () with
      | Some sr ->
          Spans.host_segment sr Spans.Host_defer ~put:true ~addr:(Addr.to_int addr) ~born:d.born
            ~now:(Engine.now t.engine) ~txn:(if d.is_owner then Spans.Put_m else Spans.Put_s) ()
      | None -> ());
      start_put t addr ~data:d.data ~dirty:d.dirty ~notify_core:d.notify_core
        ~is_owner:d.is_owner
  | None -> (
      match Int_table.find_opt t.deferred_gets addr with
      | Some kind ->
          Int_table.remove t.deferred_gets addr;
          (match Obs.spans () with
          | Some sr -> (
              match Tbe_table.find t.tbes addr with
              | Some tbe ->
                  let now = Engine.now t.engine and born = tbe.born in
                  (* Re-stamp so [host.fetch] measures only the directory
                     transaction itself, not the wait behind the put. *)
                  tbe.born <- now;
                  Spans.host_segment sr Spans.Host_defer ~addr:(Addr.to_int addr) ~born ~now
                    ~txn:(span_txn_of_kind kind) ()
              | None -> ())
          | None -> ());
          send t ~dst:(t.directory addr) (Msg.Get { kind }) addr
      | None -> ()));
  if p.notify_core then Xg_core.put_complete (core t) addr

let handle_wb_ack t addr =
  match Int_table.find_opt t.puts addr with
  | Some p ->
      send t ~dst:(t.directory addr) (Msg.Wb_data { data = p.data; dirty = p.dirty }) addr;
      Group.incr_id t.stats t.sid.(4) (* writeback_complete *);
      finish_put t addr p
  | None -> Group.incr t.stats "error.wb_ack_without_put"

let handle_wb_nack t addr =
  match Int_table.find_opt t.puts addr with
  | Some p ->
      (* Expected when ownership raced away (or for an unnecessary PutS the
         directory rejects); the block is simply gone. *)
      Group.incr t.stats "writeback_nacked";
      finish_put t addr p
  | None -> Group.incr t.stats "error.wb_nack_without_put"

let deliver t (msg : Msg.t) =
  let addr = msg.Msg.addr in
  match msg.Msg.body with
  | Msg.Fwd { kind; requestor } -> handle_fwd t addr kind ~requestor
  | Msg.Mem_data _ | Msg.Peer_ack _ | Msg.Peer_data _ -> handle_response t addr msg.Msg.body
  | Msg.Wb_ack -> handle_wb_ack t addr
  | Msg.Wb_nack -> handle_wb_nack t addr
  | Msg.Get _ | Msg.Put | Msg.Wb_data _ | Msg.Unblock _ ->
      Group.incr t.stats "error.directory_bound_message"

(* ---- model-checker support ---- *)

let check_fingerprint t buf =
  Buffer.add_string buf "xport[";
  Buffer.add_string buf t.name;
  Buffer.add_char buf ']';
  Tbe_table.to_list t.tbes
  |> List.iter (fun (addr, (g : get_tbe)) ->
         Fp.key buf 't' (Addr.to_int addr);
         Fp.field buf (Msg.get_kind_to_string g.kind);
         Fp.field_int buf g.peers_left;
         Fp.field_opt buf g.mem_data;
         Fp.field_opt buf g.peer_data;
         Fp.field_bool buf g.shared_seen;
         Buffer.add_char buf ';');
  let dump_puts label table =
    Int_table.sorted_bindings table
    |> List.iter (fun (addr, (p : put_rec)) ->
           Fp.key buf label (Addr.to_int addr);
           Fp.field_int buf (p.data : Data.t);
           Fp.field_bool buf p.dirty;
           Fp.field_bool buf p.lost_ownership;
           Fp.field_bool buf p.notify_core;
           Fp.field_bool buf p.is_owner;
           Buffer.add_char buf ';')
  in
  dump_puts 'p' t.puts;
  dump_puts 'd' t.deferred_puts;
  Int_table.sorted_bindings t.deferred_gets
  |> List.iter (fun (addr, kind) ->
         Fp.key buf 'g' (Addr.to_int addr);
         Fp.field buf (Msg.get_kind_to_string kind);
         Buffer.add_char buf ';')

let check_owner_puts t =
  let harvest table acc =
    Int_table.fold
      (fun addr (p : put_rec) acc ->
        if p.is_owner && not p.lost_ownership then (addr, p.data) :: acc else acc)
      table acc
  in
  harvest t.puts (harvest t.deferred_puts [])
  |> List.sort (fun (a, _) (b, _) -> Addr.compare a b)

let create ~engine ~net ~name ~node ~directory ?(use_get_s_only = true) () =
  let stats = Group.create (name ^ ".stats") in
  let t =
    {
      engine;
      net;
      name;
      node;
      directory;
      use_get_s_only;
      core = None;
      peer_count = 0;
      tbes = Tbe_table.create ~capacity:128 ();
      puts = Int_table.create 16;
      deferred_puts = Int_table.create 8;
      deferred_gets = Int_table.create 8;
      stats;
      sid = Group.adopt stats hot_stats;
    }
  in
  Net.register net node (fun ~src:_ msg -> deliver t msg);
  Option.iter
    (fun sr -> Spans.add_gauge sr ~name:(name ^ ".outstanding") (fun () -> outstanding t))
    (Obs.spans ());
  t
