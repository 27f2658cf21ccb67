module Engine = Xguard_sim.Engine
module Group = Xguard_stats.Counter.Group
module Xg_iface = Xguard_xg.Xg_iface

type below = B_s | B_e | B_m

type up = U_none | U_sharers of Node.t list | U_owner of Node.t

type line = {
  mutable below : below;
  mutable up : up;
  mutable data : Data.t;
  mutable dirty : bool;
  mutable below_gone : bool;
      (* an external Invalidate consumed our shared copy mid-transaction *)
}

type gather = {
  mutable pending : int;
  mutable on_done : unit -> unit;
  mutable below_inv : bool;
  original : (Node.t * Xg_iface.accel_request) option;
      (* internal request to replay if an external invalidation preempts *)
}

type txn = Fetch_below of { requestor : Node.t; want : [ `S | `M ] } | Gather of gather | Put_below

type queued = { src : Node.t; req : Xg_iface.accel_request }

(* Hot per-event stat counters: a vocabulary hashed once per process, adopted
   by each instance's fresh stats group (no name is hashed per build). *)
let hot_stats =
  Group.vocab
    [|
      "stalled_busy"; "stalled_for_space"; "miss_below"; "internal_transfer"; "share_hit";
      "exclusive_passthrough"; "upgrade_below"; "put_sunk"; "put_s_up"; "put_owner_up";
      "put_during_gather"; "l2_eviction"; "eviction_complete"; "invalidate_from_below";
    |]

type t = {
  engine : Engine.t;
  name : string;
  internal : Xg_iface.Link.t;
  node : Node.t;
  lower : Lower_port.t;
  sets : int;
  array : line Cache_array.t;
  busy_table : txn Int_table.t;
  waiting : queued Queue.t Int_table.t;
  space_waiters : (Addr.t * queued) Queue.t Int_table.t;
  l2_latency : int;
  mutable flushed : bool;  (* a device reset happened at least once (PR 8) *)
  stats : Group.t;
  sid : Group.id array; (* adopted hot stat counters, in [hot_stats] order *)
}

let stats t = t.stats
let resident t = Cache_array.count t.array
let busy t addr = Int_table.mem t.busy_table addr
let set_index t addr = addr land (t.sets - 1)

let probe t addr =
  if busy t addr then `Busy
  else
    match Cache_array.find t.array addr with
    | None -> `I
    | Some { below = B_s; _ } -> `S
    | Some { below = B_e; _ } -> `E
    | Some { below = B_m; _ } -> `M

let upward_holders t addr =
  match Cache_array.find t.array addr with
  | None | Some { up = U_none; _ } -> `None
  | Some { up = U_sharers sh; _ } -> `Sharers (List.length sh)
  | Some { up = U_owner _; _ } -> `Owner

let send_up t ~dst msg = Xg_iface.Link.send t.internal ~src:t.node ~dst ~size:(Xg_iface.msg_size msg) msg

let grant_up_resp t ~dst addr resp =
  send_up t ~dst (Xg_iface.To_accel_resp { addr; resp })

let invalidate_up t ~dst addr =
  send_up t ~dst (Xg_iface.To_accel_req { addr; req = Xg_iface.Invalidate })

(* ---- below-facing responses ---- *)

let relinquish_response (line : line) =
  match line.below with
  | B_m -> Xg_iface.Dirty_wb line.data
  | B_e -> if line.dirty then Xg_iface.Dirty_wb line.data else Xg_iface.Clean_wb line.data
  | B_s -> Xg_iface.Inv_ack

let eviction_request (line : line) =
  match line.below with
  | B_m -> Xg_iface.Put_m line.data
  | B_e -> if line.dirty then Xg_iface.Put_m line.data else Xg_iface.Put_e line.data
  | B_s -> Xg_iface.Put_s

(* ---- queue machinery (same discipline as the host L2) ---- *)

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
  let queue =
    match Int_table.find_opt t.space_waiters idx with
    | Some queue -> queue
    | None ->
        let queue = Queue.create () in
        Int_table.replace t.space_waiters idx queue;
        queue
  in
  Group.incr_id t.stats t.sid.(1) (* stalled_for_space *);
  Queue.push (addr, q) queue

let rec process t addr ({ src; req } : queued) =
  match req with
  | Xg_iface.Get_s | Xg_iface.Get_m -> process_get t addr ~src req
  | Xg_iface.Put_s | Xg_iface.Put_e _ | Xg_iface.Put_m _ ->
      process_put t addr ~src req;
      (* Puts open no transaction; drain whatever queued behind this one.
         (The gather-race path calls [process_put] directly, not [process],
         so an open gather is never clobbered here.) *)
      close t addr

and close t addr =
  Int_table.remove t.busy_table addr;
  (match Int_table.find_opt t.waiting addr with
  | Some queue when not (Queue.is_empty queue) ->
      let next = Queue.pop queue in
      Engine.schedule t.engine ~delay:t.l2_latency (fun () ->
          if busy t addr then enqueue_addr t addr next else process t addr next)
  | _ -> ());
  let idx = set_index t addr in
  match Int_table.find_opt t.space_waiters idx with
  | Some queue when not (Queue.is_empty queue) ->
      let qaddr, q = Queue.pop queue in
      Engine.schedule t.engine ~delay:t.l2_latency (fun () ->
          if busy t qaddr then enqueue_addr t qaddr q else process t qaddr q)
  | _ -> ()

(* Invalidate the given upward holders; [on_done] runs when all responded.
   Writeback data is absorbed into the line as it arrives. *)
and gather_up t addr targets ~original ~on_done =
  match targets with
  | [] -> on_done ()
  | _ ->
      let g =
        { pending = List.length targets; on_done; below_inv = false; original }
      in
      Int_table.replace t.busy_table addr (Gather g);
      List.iter (fun l1 -> invalidate_up t ~dst:l1 addr) targets

and process_get t addr ~src (req : Xg_iface.accel_request) =
  let want = match req with Xg_iface.Get_m -> `M | _ -> `S in
  match Cache_array.find t.array addr with
  | None ->
      if Cache_array.has_room t.array addr then begin
        Group.incr_id t.stats t.sid.(2) (* miss_below *);
        Cache_array.insert t.array addr
          { below = B_s; up = U_none; data = Data.zero; dirty = false; below_gone = false };
        Int_table.replace t.busy_table addr (Fetch_below { requestor = src; want });
        t.lower.Lower_port.send_req addr (match want with `M -> Xg_iface.Get_m | `S -> Xg_iface.Get_s)
      end
      else begin
        enqueue_space t addr { src; req };
        match Cache_array.victim t.array addr with
        | Some (victim_addr, victim_line) ->
            if not (busy t victim_addr) then start_eviction t victim_addr victim_line
        | None -> ()
      end
  | Some line -> (
      Cache_array.touch t.array addr;
      match want with
      | `S -> (
          match line.up with
          | U_owner o when not (Node.equal o src) ->
              (* Pull the block back from the owning L1, then share it:
                 L1-to-L1 transfer without crossing the guard. *)
              Group.incr_id t.stats t.sid.(3) (* internal_transfer *);
              line.up <- U_none;
              gather_up t addr [ o ] ~original:(Some (src, req)) ~on_done:(fun () ->
                  line.up <- U_sharers [ src ];
                  grant_up_resp t ~dst:src addr (Xg_iface.Data_s line.data);
                  close t addr)
          | U_owner _ -> failwith (t.name ^ ": GetS from the L1 that owns the block")
          | U_sharers sh ->
              Group.incr_id t.stats t.sid.(4) (* share_hit *);
              if not (List.exists (Node.equal src) sh) then line.up <- U_sharers (src :: sh);
              grant_up_resp t ~dst:src addr (Xg_iface.Data_s line.data);
              Int_table.remove t.busy_table addr;
              close t addr
          | U_none ->
              (* Sole requestor: pass through the full privilege we hold. *)
              Group.incr_id t.stats t.sid.(5) (* exclusive_passthrough *);
              let resp =
                match line.below with
                | B_s -> Xg_iface.Data_s line.data
                | B_e -> Xg_iface.Data_e line.data
                | B_m -> Xg_iface.Data_m line.data
              in
              (match line.below with
              | B_s -> line.up <- U_sharers [ src ]
              | B_e | B_m -> line.up <- U_owner src);
              grant_up_resp t ~dst:src addr resp;
              close t addr)
      | `M -> (
          let finish_grant () =
            let resp =
              if line.dirty || line.below = B_m then Xg_iface.Data_m line.data
              else Xg_iface.Data_e line.data
            in
            line.up <- U_owner src;
            grant_up_resp t ~dst:src addr resp;
            close t addr
          in
          let holders_except_src =
            match line.up with
            | U_none -> []
            | U_owner o -> if Node.equal o src then [] else [ o ]
            | U_sharers sh -> List.filter (fun n -> not (Node.equal n src)) sh
          in
          match line.below with
          | B_e | B_m ->
              line.up <- U_none;
              gather_up t addr holders_except_src ~original:(Some (src, req))
                ~on_done:finish_grant
          | B_s ->
              (* Upgrade below after clearing the other sharers above. *)
              line.up <- U_none;
              gather_up t addr holders_except_src ~original:(Some (src, req))
                ~on_done:(fun () ->
                  Group.incr_id t.stats t.sid.(6) (* upgrade_below *);
                  Int_table.replace t.busy_table addr (Fetch_below { requestor = src; want = `M });
                  t.lower.Lower_port.send_req addr Xg_iface.Get_m)))

and process_put t addr ~src (req : Xg_iface.accel_request) =
  (match Cache_array.find t.array addr with
  | None -> Group.incr_id t.stats t.sid.(7) (* put_sunk *)
  | Some line -> (
      match req with
      | Xg_iface.Put_s -> (
          match line.up with
          | U_sharers sh when List.exists (Node.equal src) sh ->
              let rest = List.filter (fun n -> not (Node.equal n src)) sh in
              line.up <- (if rest = [] then U_none else U_sharers rest);
              Group.incr_id t.stats t.sid.(8) (* put_s_up *)
          | _ -> Group.incr_id t.stats t.sid.(7) (* put_sunk *))
      | Xg_iface.Put_e data | Xg_iface.Put_m data -> (
          let dirty = match req with Xg_iface.Put_m _ -> true | _ -> false in
          match line.up with
          | U_owner o when Node.equal o src ->
              line.data <- data;
              line.dirty <- line.dirty || dirty;
              line.up <- U_none;
              Group.incr_id t.stats t.sid.(9) (* put_owner_up *)
          | _ ->
              (* Raced with a gather for this block: the data is absorbed and
                 the InvAck that follows settles the gather. *)
              line.data <- data;
              line.dirty <- line.dirty || dirty;
              Group.incr_id t.stats t.sid.(10) (* put_during_gather *))
      | Xg_iface.Get_s | Xg_iface.Get_m -> assert false));
  grant_up_resp t ~dst:src addr Xg_iface.Wb_ack

and start_eviction t victim_addr (line : line) =
  Group.incr_id t.stats t.sid.(11) (* l2_eviction *);
  line.up <-
    (match line.up with
    | U_none -> U_none
    | up -> up);
  let holders =
    match line.up with U_none -> [] | U_owner o -> [ o ] | U_sharers sh -> sh
  in
  line.up <- U_none;
  gather_up t victim_addr holders ~original:None ~on_done:(fun () ->
      if line.below_gone then begin
        (* Our copy was invalidated away mid-gather; nothing to put back. *)
        Cache_array.remove t.array victim_addr;
        close t victim_addr
      end
      else begin
        Int_table.replace t.busy_table victim_addr Put_below;
        t.lower.Lower_port.send_req victim_addr (eviction_request line)
      end)

(* ---- internal link input (from L1s) ---- *)

(* Dispatch an L1 request, possibly after the L2's processing delay.  A Put
   that lands in an open gather is the internal Put/Invalidate race: its data
   must be absorbed immediately (the InvAck follows on the ordered link) —
   deferring it would let the gather complete with stale data. *)
let rec dispatch_req t addr ~src (req : Xg_iface.accel_request) ~delayed =
  match (Int_table.find_opt t.busy_table addr, req) with
  | Some (Gather _), (Xg_iface.Put_s | Xg_iface.Put_e _ | Xg_iface.Put_m _) ->
      process_put t addr ~src req
  | Some _, _ -> enqueue_addr t addr { src; req }
  | None, _ ->
      if delayed then process t addr { src; req }
      else
        Engine.schedule t.engine ~delay:t.l2_latency (fun () ->
            dispatch_req t addr ~src req ~delayed:true)

let on_internal t ~src (msg : Xg_iface.msg) =
  match msg with
  | Xg_iface.To_xg_req { addr; req } -> dispatch_req t addr ~src req ~delayed:false
  | Xg_iface.To_xg_resp { addr; resp } -> (
      match Int_table.find_opt t.busy_table addr with
      | Some (Gather g) -> (
          (match (resp, Cache_array.find t.array addr) with
          | (Xg_iface.Dirty_wb data | Xg_iface.Clean_wb data), Some line ->
              line.data <- data;
              if (match resp with Xg_iface.Dirty_wb _ -> true | _ -> false) then
                line.dirty <- true
          | _, _ -> ());
          g.pending <- g.pending - 1;
          if g.pending = 0 then
            if g.below_inv then begin
              (* An external invalidation preempted this transaction:
                 relinquish the block below and replay the internal request. *)
              match Cache_array.find t.array addr with
              | Some line ->
                  t.lower.Lower_port.send_resp addr (relinquish_response line);
                  Cache_array.remove t.array addr;
                  (match g.original with
                  | Some (osrc, oreq) -> enqueue_addr t addr { src = osrc; req = oreq }
                  | None -> ());
                  close t addr
              | None -> close t addr
            end
            else g.on_done ())
      | Some _ | None -> Group.incr t.stats "error.unexpected_l1_response")
  | Xg_iface.To_accel_resp _ | Xg_iface.To_accel_req _ ->
      invalid_arg (t.name ^ ": guard-to-accelerator message on the internal link")

(* ---- external link input (from the Crossing Guard) ---- *)

let deliver_from_below t (msg : Xg_iface.msg) =
  match msg with
  | Xg_iface.To_accel_resp { addr; resp } -> (
      match (Int_table.find_opt t.busy_table addr, resp) with
      | Some (Fetch_below { requestor; want }), (Xg_iface.Data_s _ | Xg_iface.Data_e _ | Xg_iface.Data_m _)
        -> (
          let line =
            match Cache_array.find t.array addr with
            | Some l -> l
            | None -> failwith (t.name ^ ": grant for absent line")
          in
          (match resp with
          | Xg_iface.Data_s d ->
              line.below <- B_s;
              line.data <- d
          | Xg_iface.Data_e d ->
              line.below <- B_e;
              line.data <- d
          | Xg_iface.Data_m d ->
              line.below <- B_m;
              line.data <- d
          | Xg_iface.Wb_ack -> assert false);
          line.dirty <- false;
          line.below_gone <- false;
          match want with
          | `S ->
              let up_resp =
                match line.below with
                | B_s -> Xg_iface.Data_s line.data
                | B_e -> Xg_iface.Data_e line.data
                | B_m -> Xg_iface.Data_m line.data
              in
              (match line.below with
              | B_s -> line.up <- U_sharers [ requestor ]
              | B_e | B_m -> line.up <- U_owner requestor);
              grant_up_resp t ~dst:requestor addr up_resp;
              close t addr
          | `M ->
              let up_resp =
                match line.below with
                | B_m -> Xg_iface.Data_m line.data
                | B_e -> Xg_iface.Data_e line.data
                | B_s -> failwith (t.name ^ ": shared grant for an exclusive fetch")
              in
              line.up <- U_owner requestor;
              grant_up_resp t ~dst:requestor addr up_resp;
              close t addr)
      | Some Put_below, Xg_iface.Wb_ack ->
          Cache_array.remove t.array addr;
          Group.incr_id t.stats t.sid.(12) (* eviction_complete *);
          close t addr
      | Some _, _ | None, _ ->
          (* After a device reset the transaction a grant was headed for may
             be gone; before the first reset this is a hard violation. *)
          if not t.flushed then
            failwith
              (Format.asprintf "%s: unexpected response from below: %a" t.name
                 Xg_iface.pp_xg_response resp))
  | Xg_iface.To_accel_req { addr; req = Xg_iface.Invalidate } -> (
      Group.incr_id t.stats t.sid.(13) (* invalidate_from_below *);
      match Int_table.find_opt t.busy_table addr with
      | Some (Gather g) -> (
          match Cache_array.find t.array addr with
          | Some { below = B_e | B_m; _ } ->
              (* Data must come back: defer the reply until the gather
                 finishes and the owner's writeback is absorbed. *)
              g.below_inv <- true
          | Some { below = B_s; _ } | None ->
              t.lower.Lower_port.send_resp addr Xg_iface.Inv_ack;
              (match Cache_array.find t.array addr with
              | Some line ->
                  (* The shared copy is gone; a pending upgrade refetches and
                     an eviction must not put the block back. *)
                  line.below_gone <- true;
                  line.dirty <- false
              | None -> ()))
      | Some (Fetch_below _) | Some Put_below ->
          (* Busy toward the guard: Table 1's B + Invalidate rule. *)
          t.lower.Lower_port.send_resp addr Xg_iface.Inv_ack
      | None -> (
          match Cache_array.find t.array addr with
          | None -> t.lower.Lower_port.send_resp addr Xg_iface.Inv_ack
          | Some line -> (
              match line.up with
              | U_none ->
                  t.lower.Lower_port.send_resp addr (relinquish_response line);
                  Cache_array.remove t.array addr
              | U_owner o ->
                  line.up <- U_none;
                  gather_up t addr [ o ] ~original:None ~on_done:(fun () ->
                      t.lower.Lower_port.send_resp addr (relinquish_response line);
                      Cache_array.remove t.array addr;
                      close t addr)
              | U_sharers sh ->
                  line.up <- U_none;
                  gather_up t addr sh ~original:None ~on_done:(fun () ->
                      t.lower.Lower_port.send_resp addr (relinquish_response line);
                      Cache_array.remove t.array addr;
                      close t addr))))
  | Xg_iface.To_xg_req _ | Xg_iface.To_xg_resp _ ->
      invalid_arg (t.name ^ ": accelerator-to-guard message from below")

(* Device-level reset (PR 8): drop every line and every open transaction
   without writebacks — the quarantine drain already settled the host side.
   In-flight internal requests re-enter as fresh misses afterwards. *)
let flush t =
  Cache_array.to_list t.array
  |> List.iter (fun (addr, _) -> Cache_array.remove t.array addr);
  Int_table.reset t.busy_table;
  Int_table.reset t.waiting;
  Int_table.reset t.space_waiters;
  t.flushed <- true

let create ~engine ~name ~internal ~node ~lower ~sets ~ways ?(l2_latency = 2) () =
  let stats = Group.create (name ^ ".stats") in
  let t =
    {
      engine;
      name;
      internal;
      node;
      lower;
      sets;
      array = Cache_array.create ~sets ~ways ();
      busy_table = Int_table.create 16;
      waiting = Int_table.create 16;
      space_waiters = Int_table.create 16;
      l2_latency;
      flushed = false;
      stats;
      sid = Group.adopt stats hot_stats;
    }
  in
  Xg_iface.Link.register internal node (fun ~src msg -> on_internal t ~src msg);
  t
