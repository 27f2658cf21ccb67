module Engine = Xguard_sim.Engine
module Rng = Xguard_sim.Rng
module Xg_iface = Xguard_xg.Xg_iface

type t = {
  engine : Engine.t;
  rng : Rng.t;
  link : Xg_iface.Link.t;
  self : Node.t;
  xg : Node.t;
  addresses : Addr.t array;
  respond_probability : float;
  requests_only : bool;
  tarpit : int option;  (* answer Invalidates correctly but this late (PR 8) *)
  mutable sent : int;
  mutable invs_ignored : int;
}

let messages_sent t = t.sent
let invalidations_ignored t = t.invs_ignored

let send t msg =
  t.sent <- t.sent + 1;
  Xg_iface.Link.send t.link ~src:t.self ~dst:t.xg ~size:(Xg_iface.msg_size msg) msg

let random_token t = Data.token (Rng.int t.rng 1_000_000)

let random_request t =
  match Rng.int t.rng 5 with
  | 0 -> Xg_iface.Get_s
  | 1 -> Xg_iface.Get_m
  | 2 -> Xg_iface.Put_s
  | 3 -> Xg_iface.Put_e (random_token t)
  | _ -> Xg_iface.Put_m (random_token t)

let random_response t =
  match Rng.int t.rng 3 with
  | 0 -> Xg_iface.Clean_wb (random_token t)
  | 1 -> Xg_iface.Dirty_wb (random_token t)
  | _ -> Xg_iface.Inv_ack

let fire t =
  let addr = Rng.pick t.rng t.addresses in
  if t.requests_only || Rng.bool t.rng then
    send t (Xg_iface.To_xg_req { addr; req = random_request t })
  else send t (Xg_iface.To_xg_resp { addr; resp = random_response t })

let on_invalidate t addr =
  match t.tarpit with
  | Some lag ->
      (* Tarpit mode: always answer, always the right type, always this
         late — a slow-but-honest accelerator that trips hang budgets
         without ever reaching the coarse G2c timeout. *)
      Engine.schedule t.engine ~delay:lag (fun () ->
          send t (Xg_iface.To_xg_resp { addr; resp = Xg_iface.Inv_ack }))
  | None ->
      if Rng.chance t.rng t.respond_probability then
        (* Possibly the wrong type, possibly the right one; possibly delayed. *)
        Engine.schedule t.engine ~delay:(Rng.int t.rng 50) (fun () ->
            send t (Xg_iface.To_xg_resp { addr; resp = random_response t }))
      else t.invs_ignored <- t.invs_ignored + 1

let create ~engine ~rng ~link ~self ~xg ~addresses ?(period = 5)
    ?(respond_probability = 0.7) ?(requests_only = false) ?tarpit ?(duration = 50_000) () =
  let t =
    {
      engine;
      rng;
      link;
      self;
      xg;
      addresses;
      respond_probability;
      requests_only;
      tarpit;
      sent = 0;
      invs_ignored = 0;
    }
  in
  Xg_iface.Link.register link self (fun ~src:_ msg ->
      match msg with
      | Xg_iface.To_accel_req { addr; req = Xg_iface.Invalidate } -> on_invalidate t addr
      | Xg_iface.To_accel_resp _ -> () (* grants and acks for garbage requests: ignore *)
      | Xg_iface.To_xg_req _ | Xg_iface.To_xg_resp _ -> ());
  let deadline = Engine.now engine + duration in
  Engine.every engine ~period ~phase:1 (fun () ->
      fire t;
      Engine.now engine < deadline);
  t
