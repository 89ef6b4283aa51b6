(** Hash tables keyed by [int] and hashed by the key itself, so an
    operation makes no [caml_hash] call.  Consecutive keys, such as flow ids
    handed out in order, fill the buckets evenly; keys that agree in their
    low bits share a bucket. *)

include Hashtbl.S with type key = int
