module Engine = Xguard_sim.Engine
module Group = Xguard_stats.Counter.Group

type txn =
  | Get_txn of { requestor : Node.t }
  | Put_txn of { putter : Node.t; mutable awaiting_data : bool }

type queued = { src : Node.t; body : Msg.body }

type t = {
  engine : Engine.t;
  net : Net.t;
  name : string;
  node : Node.t;
  memory : Memory_model.t;
  dir_latency : int;
  mem_latency : int;
  occupancy : int;
  mutable server_free_at : Engine.time;
  mutable caches : Node.t list;
  owner_table : Node.t Int_table.t;
  busy_table : txn Int_table.t;
  waiting : queued Queue.t Int_table.t;
  stats : Group.t;
  sid : Group.id array; (* adopted hot stat counters, in [hot_stats] order *)
}

let node t = t.node
let stats t = t.stats
let set_caches t caches = t.caches <- caches
(* Hot per-message stat counters: a vocabulary hashed once per process,
   adopted by each instance's fresh stats group (no name is hashed per build). *)
let hot_stats =
  Group.vocab
    [|
      "stalled_at_directory"; "get.GetS"; "get.GetS_only"; "get.GetM"; "put"; "unblock";
      "writeback"; "server_busy_cycles";
    |]

let owner t addr = Int_table.find_opt t.owner_table addr
let busy t addr = Int_table.mem t.busy_table addr
let open_transactions t = Int_table.length t.busy_table

let send t ~dst body addr =
  let msg = { Msg.addr; body } in
  Net.send t.net ~src:t.node ~dst ~size:(Msg.size msg) msg

let set_owner t addr = function
  | None -> Int_table.remove t.owner_table addr
  | Some n -> Int_table.replace t.owner_table addr n

let enqueue t addr q =
  let queue =
    match Int_table.find_opt t.waiting addr with
    | Some queue -> queue
    | None ->
        let queue = Queue.create () in
        Int_table.replace t.waiting addr queue;
        queue
  in
  Group.incr_id t.stats t.sid.(0) (* stalled_at_directory *);
  Queue.push q queue

let rec start t addr { src; body } =
  match body with
  | Msg.Get { kind } ->
      Group.incr_id t.stats
        t.sid.(match kind with Msg.Get_s -> 1 | Msg.Get_s_only -> 2 | Msg.Get_m -> 3);
      Int_table.replace t.busy_table addr (Get_txn { requestor = src });
      List.iter
        (fun cache ->
          if not (Node.equal cache src) then send t ~dst:cache (Msg.Fwd { kind; requestor = src }) addr)
        t.caches;
      Engine.schedule t.engine ~delay:t.mem_latency
        ~tag:(Engine.pack_tag ~ctrl:(Node.id t.node) ~addr:(Addr.to_int addr))
        (fun () ->
          send t ~dst:src (Msg.Mem_data { data = Memory_model.read t.memory addr }) addr)
  | Msg.Put ->
      Group.incr_id t.stats t.sid.(4) (* put *);
      if owner t addr = Some src then begin
        Int_table.replace t.busy_table addr (Put_txn { putter = src; awaiting_data = true });
        send t ~dst:src Msg.Wb_ack addr
      end
      else begin
        (* Put from a non-owner: a legitimate race, or an erroneous Put the
           paper's Guarantee 1a discussion covers.  Nack and move on — and
           keep draining whatever queued behind this message. *)
        Group.incr t.stats "put_nacked";
        send t ~dst:src Msg.Wb_nack addr;
        finish t addr
      end
  | _ -> assert false

and finish t addr =
  Int_table.remove t.busy_table addr;
  match Int_table.find_opt t.waiting addr with
  | Some queue when Queue.is_empty queue ->
      (* Drained queues would otherwise stay registered forever — inert, but
         an asymmetry that leaks into state fingerprints. *)
      Int_table.remove t.waiting addr
  | Some queue ->
      let next = Queue.pop queue in
      if Queue.is_empty queue then Int_table.remove t.waiting addr;
      Engine.schedule t.engine ~delay:t.dir_latency
        ~tag:(Engine.pack_tag ~ctrl:(Node.id t.node) ~addr:(Addr.to_int addr))
        (fun () ->
          (* A newly arriving message can slip in between this pop and the
             scheduled start; re-check and requeue rather than clobber the
             transaction it opened. *)
          if busy t addr then enqueue t addr next else start t addr next)
  | _ -> ()

let deliver t ~src (msg : Msg.t) =
  let addr = msg.Msg.addr in
  match msg.Msg.body with
  | Msg.Get _ | Msg.Put ->
      if busy t addr then enqueue t addr { src; body = msg.Msg.body }
      else
        Engine.schedule t.engine ~delay:t.dir_latency
          ~tag:(Engine.pack_tag ~ctrl:(Node.id t.node) ~addr:(Addr.to_int addr))
          (fun () ->
            if busy t addr then enqueue t addr { src; body = msg.Msg.body }
            else start t addr { src; body = msg.Msg.body })
  | Msg.Unblock { exclusive } -> (
      match Int_table.find_opt t.busy_table addr with
      | Some (Get_txn { requestor }) when Node.equal requestor src ->
          if exclusive then set_owner t addr (Some src);
          Group.incr_id t.stats t.sid.(5) (* unblock *);
          finish t addr
      | Some _ | None ->
          (* Robustness: drop and count.  A correct system never reaches it. *)
          Group.incr t.stats "error.unexpected_unblock")
  | Msg.Wb_data { data; dirty } -> (
      match Int_table.find_opt t.busy_table addr with
      | Some (Put_txn p) when Node.equal p.putter src && p.awaiting_data ->
          p.awaiting_data <- false;
          if dirty then Memory_model.write t.memory addr data;
          set_owner t addr None;
          Group.incr_id t.stats t.sid.(6) (* writeback *);
          finish t addr
      | Some _ | None -> Group.incr t.stats "error.unexpected_wb_data")
  | Msg.Fwd _ | Msg.Wb_ack | Msg.Wb_nack | Msg.Mem_data _ | Msg.Peer_ack _ | Msg.Peer_data _
    ->
      Group.incr t.stats "error.cache_bound_message"

(* ---- model-checker support ---- *)

let owner_entries t = Int_table.sorted_bindings t.owner_table

let check_waiting_tables t = Int_table.length t.waiting

let check_fingerprint t buf =
  Buffer.add_string buf "dir[";
  Buffer.add_string buf t.name;
  Buffer.add_char buf ']';
  List.iter
    (fun (addr, n) ->
      Fp.key buf 'o' (Addr.to_int addr);
      Fp.field_int buf (Node.id n);
      Buffer.add_char buf ';')
    (owner_entries t);
  Int_table.sorted_bindings t.busy_table
  |> List.iter (fun (addr, txn) ->
         Buffer.add_char buf 'b';
         match txn with
         | Get_txn { requestor } ->
             Fp.key buf 'G' (Addr.to_int addr);
             Fp.field_int buf (Node.id requestor);
             Buffer.add_char buf ';'
         | Put_txn { putter; awaiting_data } ->
             Fp.key buf 'P' (Addr.to_int addr);
             Fp.field_int buf (Node.id putter);
             Fp.field_bool buf awaiting_data;
             Buffer.add_char buf ';');
  Int_table.sorted_bindings t.waiting
  |> List.iter (fun (addr, q) ->
         Fp.key buf 'w' (Addr.to_int addr);
         Buffer.add_char buf ':';
         Queue.iter
           (fun { src; body } ->
             Fp.int buf (Node.id src);
             Buffer.add_char buf '>';
             Msg.add_text buf { Msg.addr; body };
             Buffer.add_char buf ',')
           q;
         Buffer.add_char buf ';');
  if t.occupancy > 0 && t.server_free_at > Engine.now t.engine then begin
    Fp.key buf 's' (t.server_free_at - Engine.now t.engine);
    Buffer.add_char buf ';'
  end

let create ~engine ~net ~name ~node ~memory ?(dir_latency = 6) ?(mem_latency = 60)
    ?(occupancy = 0) () =
  let stats = Group.create (name ^ ".stats") in
  let t =
    {
      engine;
      net;
      name;
      node;
      memory;
      dir_latency;
      mem_latency;
      occupancy;
      server_free_at = 0;
      caches = [];
      owner_table = Int_table.create 16;
      busy_table = Int_table.create 16;
      waiting = Int_table.create 16;
      stats;
      sid = Group.adopt stats hot_stats;
    }
  in
  Net.register net node (fun ~src msg ->
      if t.occupancy = 0 then deliver t ~src msg
      else begin
        (* Finite pipeline: messages serialize through one server. *)
        let now = Engine.now t.engine in
        let start = max now t.server_free_at in
        t.server_free_at <- start + t.occupancy;
        Group.add_id t.stats t.sid.(7) t.occupancy (* server_busy_cycles *);
        Engine.schedule_at t.engine start
          ~tag:(Engine.pack_tag ~ctrl:(Node.id t.node) ~addr:(Addr.to_int msg.Msg.addr))
          (fun () -> deliver t ~src msg)
      end);
  t
