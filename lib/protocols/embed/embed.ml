(* embed DIR FILE... prints an OCaml module binding [specs] to the
   (DIR/basename, contents) of each FILE, sorted — how lib/protocols compiles
   corpus/specs/*.hpl in. [%S] escapes the text as a string literal. *)
let () =
  let dir = Sys.argv.(1) in
  print_endline "let specs = [";
  List.iter
    (fun path ->
      Printf.printf "  (%S, %S);\n"
        (Filename.concat dir (Filename.basename path))
        (In_channel.with_open_bin path In_channel.input_all))
    (List.sort compare (List.tl (List.tl (Array.to_list Sys.argv))));
  print_endline "]"
