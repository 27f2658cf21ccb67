module Engine = Xguard_sim.Engine

type grant = Merged_s of Data.t array | Merged_e of Data.t array | Merged_m of Data.t array

type backing = {
  get : Addr.t -> excl:bool -> on_grant:(Data.t -> unit) -> unit;
  put : Addr.t -> Data.t -> unit;
}

type t = {
  engine : Engine.t;
  ratio : int;
  backing : backing;
  mutable host_transactions : int;
  mutable open_merges : int;
}

let is_power_of_two n = n > 0 && n land (n - 1) = 0

let create ~engine ~ratio ~backing () =
  if not (is_power_of_two ratio) then invalid_arg "Block_merge.create: ratio not a power of two";
  { engine; ratio; backing; host_transactions = 0; open_merges = 0 }

let line_of_host_block t addr = Addr.to_int addr / t.ratio

let component t ~line i = Addr.block ((line * t.ratio) + i)

let host_transactions t = t.host_transactions
let open_merges t = t.open_merges

let get t ~line ~excl ~on_grant =
  let parts = Array.make t.ratio Data.zero in
  let remaining = ref t.ratio in
  t.open_merges <- t.open_merges + 1;
  for i = 0 to t.ratio - 1 do
    t.host_transactions <- t.host_transactions + 1;
    t.backing.get (component t ~line i) ~excl ~on_grant:(fun data ->
        parts.(i) <- data;
        decr remaining;
        if !remaining = 0 then begin
          t.open_merges <- t.open_merges - 1;
          on_grant (if excl then Merged_e parts else Merged_s parts)
        end)
  done

let put t ~line parts =
  if Array.length parts <> t.ratio then
    invalid_arg "Block_merge.put: line data must have exactly [ratio] components";
  Array.iteri
    (fun i data ->
      t.host_transactions <- t.host_transactions + 1;
      t.backing.put (component t ~line i) data)
    parts
