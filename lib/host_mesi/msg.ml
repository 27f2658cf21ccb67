type get_kind = Get_s | Get_s_only | Get_m

type grant = Grant_s | Grant_e | Grant_m

type body =
  | Get of { kind : get_kind }
  | Put_s
  | Put_m of { data : Data.t; dirty : bool }
  | Unblock
  | L2_data of { data : Data.t; grant : grant; acks : int }
  | Wb_ack
  | Inv of { reply_to : Node.t }
  | Recall
  | Fwd of { kind : get_kind; requestor : Node.t }
  | Inv_ack
  | Owner_data of { data : Data.t; dirty : bool; grant : grant }
  | Recall_data of { data : Data.t; dirty : bool }
  | Recall_ack
  | Copyback of { data : Data.t; dirty : bool }
  | Fetch
  | Mem_data of { data : Data.t }
  | Mem_wb of { data : Data.t }
  | Mem_wb_ack

type t = { addr : Addr.t; body : body }

let size t =
  match t.body with
  | Put_m _ | L2_data _ | Owner_data _ | Recall_data _ | Copyback _ | Mem_data _ | Mem_wb _
    ->
      Xguard_network.Network.data_size
  | Get _ | Put_s | Unblock | Wb_ack | Inv _ | Recall | Fwd _ | Inv_ack | Recall_ack | Fetch
  | Mem_wb_ack ->
      Xguard_network.Network.control_size

let get_kind_to_string = function
  | Get_s -> "GetS"
  | Get_s_only -> "GetS_only"
  | Get_m -> "GetM"

let grant_to_string = function Grant_s -> "S" | Grant_e -> "E" | Grant_m -> "M"

(* "<body> 0x<addr>", in the protocol's message names. *)
let add_text buf t =
  let add = Buffer.add_string buf in
  (match t.body with
  | Get { kind } -> add (get_kind_to_string kind)
  | Put_s -> add "PutS"
  | Put_m { dirty; _ } -> add (if dirty then "PutM(dirty)" else "PutM(clean)")
  | Unblock -> add "Unblock"
  | L2_data { grant; acks; _ } ->
      add "L2Data(";
      add (grant_to_string grant);
      add ",acks=";
      Fp.int buf acks;
      Buffer.add_char buf ')'
  | Wb_ack -> add "WbAck"
  | Inv { reply_to } ->
      add "Inv(->";
      add (Node.name reply_to);
      Buffer.add_char buf ')'
  | Recall -> add "Recall"
  | Fwd { kind; requestor } ->
      add "Fwd_";
      add (get_kind_to_string kind);
      add "(for ";
      add (Node.name requestor);
      Buffer.add_char buf ')'
  | Inv_ack -> add "InvAck"
  | Owner_data { grant; _ } ->
      add "OwnerData(";
      add (grant_to_string grant);
      Buffer.add_char buf ')'
  | Recall_data _ -> add "RecallData"
  | Recall_ack -> add "RecallAck"
  | Copyback _ -> add "Copyback"
  | Fetch -> add "Fetch"
  | Mem_data _ -> add "MemData"
  | Mem_wb _ -> add "MemWb"
  | Mem_wb_ack -> add "MemWbAck");
  add " 0x";
  Fp.hex buf (Addr.to_int t.addr)

let pp = Fp.pp_of add_text
