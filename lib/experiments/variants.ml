module Sack = Tcp.Sack_core
module Newreno = Tcp.Newreno_core

type t = string * (module Tcp.Sender.S)

let tcp_pr : t = ("TCP-PR", (module Core.Tcp_pr))

let tcp_sack : t = ("TCP-SACK", Sack.sender Sack.create)

let td_fr : t = ("TD-FR", Sack.sender (Sack.create ~trigger:Time_delayed))

let dsack_nm : t =
  ("DSACK-NM", Sack.sender (Sack.create ~response:Sack.dsack_nm))

let inc_by_1 : t =
  ("Inc by 1", Sack.sender (Sack.create ~response:Sack.inc_by_1))

let inc_by_n : t =
  ("Inc by N", Sack.sender (Sack.create ~response:Sack.inc_by_n))

let ewma : t = ("EWMA", Sack.sender (Sack.create ~response:Sack.ewma))

let eifel : t = ("Eifel", Sack.sender (Sack.create ~response:Sack.eifel))

let tcp_door : t = ("TCP-DOOR", Sack.sender (Sack.create ~door:true))

(* DSACK-based reordering detection widens the adaptive reo_wnd; the
   dupthresh policy is irrelevant (dupthresh is unused by the Rack
   trigger). *)
let rack : t =
  ("RACK", Sack.sender (Sack.create ~response:Sack.dsack_nm ~trigger:Rack))

let tahoe : t = ("Tahoe", Newreno.sender (Newreno.create ~style:Tahoe))

let reno : t = ("Reno", Newreno.sender (Newreno.create ~style:Reno))

let newreno : t = ("NewReno", Newreno.sender (Newreno.create ~style:Newreno))

let fig6 : t list = [ tcp_pr; td_fr; dsack_nm; inc_by_1; inc_by_n; ewma ]

(* Not compared in the paper, but closely related: Eifel from the
   related-work section, and RACK — the modern mainstream descendant of
   timer-based loss detection. *)
let extensions : t list = [ eifel; tcp_door; rack ]

(* Historical baselines, mostly for the torture tests and ablations. *)
let classics : t list = [ tahoe; reno; newreno ]

let all : t list = (tcp_sack :: classics) @ fig6 @ extensions

let canonical name =
  String.lowercase_ascii name
  |> String.map (function ' ' | '-' | '_' -> '-' | c -> c)

let find name =
  let target = canonical name in
  List.find_opt (fun (label, _) -> canonical label = target) all
