type get_kind = Get_s | Get_s_only | Get_m

type body =
  | Get of { kind : get_kind }
  | Put
  | Wb_data of { data : Data.t; dirty : bool }
  | Unblock of { exclusive : bool }
  | Fwd of { kind : get_kind; requestor : Node.t }
  | Wb_ack
  | Wb_nack
  | Mem_data of { data : Data.t }
  | Peer_ack of { shared : bool }
  | Peer_data of { data : Data.t; dirty : bool }

type t = { addr : Addr.t; body : body }

let size t =
  match t.body with
  | Wb_data _ | Mem_data _ | Peer_data _ -> Xguard_network.Network.data_size
  | Get _ | Put | Unblock _ | Fwd _ | Wb_ack | Wb_nack | Peer_ack _ ->
      Xguard_network.Network.control_size

let get_kind_to_string = function
  | Get_s -> "GetS"
  | Get_s_only -> "GetS_only"
  | Get_m -> "GetM"

(* "<body> 0x<addr>", in the protocol's message names. *)
let add_text buf t =
  let add = Buffer.add_string buf in
  (match t.body with
  | Get { kind } -> add (get_kind_to_string kind)
  | Put -> add "Put"
  | Wb_data { dirty; _ } -> add (if dirty then "WbData(dirty)" else "WbData(clean)")
  | Unblock { exclusive } -> add (if exclusive then "Unblock(excl)" else "Unblock")
  | Fwd { kind; requestor } ->
      add "Fwd_";
      add (get_kind_to_string kind);
      add "(for ";
      add (Node.name requestor);
      Buffer.add_char buf ')'
  | Wb_ack -> add "WbAck"
  | Wb_nack -> add "WbNack"
  | Mem_data _ -> add "MemData"
  | Peer_ack { shared } -> add (if shared then "PeerAck(shared)" else "PeerAck")
  | Peer_data { dirty; _ } -> add (if dirty then "PeerData(dirty)" else "PeerData(clean)"));
  add " 0x";
  Fp.hex buf (Addr.to_int t.addr)

let pp = Fp.pp_of add_text
