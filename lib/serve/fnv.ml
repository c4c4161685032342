(* A plain loop over a local [int64] ref: ocamlopt keeps the ref
   unboxed, so hashing allocates nothing per byte. A closure over the
   ref (as with [String.iter]) would box it, three words per byte. *)
let fnv64 s =
  let h = ref 0xcbf29ce484222325L in
  for i = 0 to String.length s - 1 do
    h :=
      Int64.mul
        (Int64.logxor !h (Int64.of_int (Char.code (String.unsafe_get s i))))
        0x100000001b3L
  done;
  !h

let hex64 h = Printf.sprintf "%016Lx" h
