include Hashtbl.Make (struct
  type t = int

  let equal = Int.equal

  let hash k =
    let h = k * 0x1F3D5B79A9E3779B in
    (h lxor (h lsr 31)) land max_int
end)
