type t =
  | Send of { seq : int; retx : bool }
  | Set_timer of { key : int; delay : float }
  | Cancel_timer of { key : int }
