type sack_block = { first : int; last : int }

type ack = {
  next : int;
  sacks : sack_block list;
  dsack : sack_block option;
  for_seq : int;
  for_retx : bool;
  serial : int;
  rwnd : int;
}

(* Unbounded advertised window: the sentinel every acknowledgement
   carries while the finite receive buffer is disabled. An immediate
   int, so carrying it costs one word and no allocation. *)
let rwnd_unbounded = max_int

let max_sack_blocks = 3

type Net.Packet.payload +=
  | Data of { seq : int; retx : bool }
  | Ack of ack
