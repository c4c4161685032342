open Hpl_core

type error = Absent | Cache_invalid of string

(* Bumping the format (or Universe's body encoding) means bumping this
   string: old files then fail the magic check and are re-enumerated,
   which is exactly the invalidation rule we want. *)
let magic = "HPLSNAP2"

let path_of ~dir ~key =
  Filename.concat dir (Fnv.hex64 (Fnv.fnv64 key) ^ ".hplsnap")

let add_u32 b v =
  if v < 0 || v > 0x3fffffff then invalid_arg "Snapshot: length out of range";
  Buffer.add_int32_le b (Int32.of_int v)

let save ~dir ~key u =
  match Universe.serialize u with
  | Error e -> Error e
  | Ok body -> (
      let b = Buffer.create (String.length body + 64) in
      Buffer.add_string b magic;
      add_u32 b (String.length key);
      Buffer.add_string b key;
      Buffer.add_int64_le b (Fnv.fnv64 body);
      add_u32 b (String.length body);
      Buffer.add_string b body;
      let path = path_of ~dir ~key in
      let tmp = Printf.sprintf "%s.tmp.%d" path (Unix.getpid ()) in
      try
        Out_channel.with_open_bin tmp (fun oc ->
            Out_channel.output_string oc (Buffer.contents b));
        Unix.rename tmp path;
        Ok ()
      with
      | Sys_error e ->
          (try Sys.remove tmp with Sys_error _ -> ());
          Error e
      | Unix.Unix_error (e, _, _) ->
          (try Sys.remove tmp with Sys_error _ -> ());
          Error (Unix.error_message e))

exception Invalid of string

let load ~dir ~key spec =
  let path = path_of ~dir ~key in
  match In_channel.with_open_bin path In_channel.input_all with
  | exception Sys_error _ -> Error Absent
  | raw -> (
      let pos = ref 0 in
      let len = String.length raw in
      let fail m = raise (Invalid m) in
      let take k what =
        if k < 0 || !pos + k > len then fail ("truncated " ^ what);
        let s = String.sub raw !pos k in
        pos := !pos + k;
        s
      in
      let u32 what =
        if !pos + 4 > len then fail ("truncated " ^ what);
        let v = Int32.to_int (String.get_int32_le raw !pos) in
        pos := !pos + 4;
        if v < 0 || v > 0x3fffffff then fail ("implausible " ^ what);
        v
      in
      let u64 what =
        if !pos + 8 > len then fail ("truncated " ^ what);
        let v = String.get_int64_le raw !pos in
        pos := !pos + 8;
        v
      in
      try
        if take (String.length magic) "header" <> magic then
          fail "bad magic or snapshot format version";
        let klen = u32 "key length" in
        if take klen "key" <> key then
          fail "cache key mismatch (filename hash collision or stale file)";
        let sum = u64 "checksum" in
        let blen = u32 "body length" in
        let body = take blen "body" in
        if !pos <> len then fail "trailing bytes after body";
        if Fnv.fnv64 body <> sum then fail "checksum mismatch";
        match Universe.deserialize spec body with
        | Ok u -> Ok u
        | Error e -> fail ("bad body: " ^ e)
      with Invalid m -> Error (Cache_invalid m))
