type t = { id : int; name : string }

let id t = t.id
let name t = t.name
let equal a b = a.id = b.id
let compare a b = Int.compare a.id b.id
let pp fmt t = Format.fprintf fmt "%s" t.name

module Registry = struct
  type node = t
  type t = { mutable next : int; mutable nodes : node list }

  let create () = { next = 0; nodes = [] }

  let fresh t name =
    let node = { id = t.next; name } in
    t.next <- t.next + 1;
    t.nodes <- node :: t.nodes;
    node

  let all t = List.rev t.nodes
end
