(** Fixed-width text tables for experiment output. *)

type t

(** [create ~columns] starts a table with the given header labels. *)
val create : columns:string list -> t

(** [add_row t cells] appends a row; must match the column count. *)
val add_row : t -> string list -> unit

(** [add_float_row t ?decimals label values] appends a label cell
    followed by formatted floats. *)
val add_float_row : t -> ?decimals:int -> string -> float list -> unit

(** [pivot ~column cells] tabulates [(row, key, value)] cells: one row
    per distinct [row] label in order of first appearance, one column
    per distinct [key] in ascending order, headed ["variant"] and then
    [column key]. Values print with 2 decimals; a missing cell reads
    [nan]. *)
val pivot : column:('a -> string) -> (string * 'a * float) list -> t

(** [print t] renders to stdout. *)
val print : t -> unit

(** [to_string t] renders to a string. *)
val to_string : t -> string

(** [to_csv t] renders as RFC 4180 CSV (header row first). *)
val to_csv : t -> string
