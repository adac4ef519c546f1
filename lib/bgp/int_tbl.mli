(** Hash tables keyed by int (path memo keys, peer ids), hashed inline
    with a multiply-xorshift mix: no [Hashtbl.hash] C call per probe and
    no polymorphic compare per bucket entry. *)

include Hashtbl.S with type key = int
