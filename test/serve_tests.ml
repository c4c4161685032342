(* The hpl serve surface: universe serialization round-trips, snapshot
   integrity under seeded corruption, LRU cache behavior, and — the
   headline — conformance between the server and the CLI, checked both
   in-process (registry-wide) and through real hpl processes. *)
open Hpl_core
open Hpl_protocols
open Hpl_serve

let () = Builtins.init ()
let check = Alcotest.check
let tbool = Alcotest.bool
let tint = Alcotest.int
let tstr = Alcotest.string

let get = function
  | Ok v -> v
  | Error e -> Alcotest.failf "unexpected error: %s" e

let setup ?proto ?file ?depth ?faults ?max_states ?max_seconds () =
  get (Query.resolve ?proto ?file ?depth ?faults ?max_states ?max_seconds ())

let universe ?(mode = `Canonical) ?(reduce = "none") ?(indep = false) st =
  let r = get (Query.resolve_reduce st ~mode ~indep reduce) in
  Query.enumerate ~mode st ~reduce:r

let stats_str u = Format.asprintf "%a" Universe.pp_stats u

let contains s sub =
  let n = String.length sub in
  let rec at i = i + n <= String.length s && (String.sub s i n = sub || at (i + 1)) in
  at 0

let formula text =
  match Formula.parse text with
  | Ok f -> f
  | Error e -> Alcotest.failf "formula parse %S: %s" text e

let temp_dir () =
  let d =
    Filename.concat (Filename.get_temp_dir_name ())
      (Printf.sprintf "hpl-serve-test-%d-%d" (Unix.getpid ()) (Random.bits ()))
  in
  Unix.mkdir d 0o755;
  d

let rm_rf d =
  if Sys.file_exists d then begin
    Array.iter (fun f -> Sys.remove (Filename.concat d f)) (Sys.readdir d);
    Unix.rmdir d
  end

(* -- Universe serialization ---------------------------------------------- *)

(* A reloaded universe must be observationally identical: same stats
   line, same computations at the same indices, and — through the
   rebuilt per-process class ids — the same knowledge answers. *)
let assert_same_universe what st u u2 =
  check tstr (what ^ ": stats") (stats_str u) (stats_str u2);
  check tint (what ^ ": size") (Universe.size u) (Universe.size u2);
  Universe.iter
    (fun i z ->
      match Universe.index u2 z with
      | Some j when j = i -> ()
      | Some j -> Alcotest.failf "%s: comp %d reloaded at index %d" what i j
      | None -> Alcotest.failf "%s: comp %d lost on reload" what i)
    u;
  List.iter
    (fun p ->
      check
        Alcotest.(array int)
        (what ^ ": class ids " ^ Pid.to_string p)
        (Universe.class_ids u p) (Universe.class_ids u2 p))
    (Spec.pids (Universe.spec u));
  check
    Alcotest.(array (array int))
    (what ^ ": successors") (Universe.successors u) (Universe.successors u2);
  let k1 = Query.run_knows st u and k2 = Query.run_knows st u2 in
  check tstr (what ^ ": knows report") k1.Query.out k2.Query.out;
  check tint (what ^ ": knows code") k1.Query.code k2.Query.code

let roundtrip what st u =
  let body = get (Universe.serialize u) in
  let u2 = get (Universe.deserialize st.Query.spec body) in
  assert_same_universe what st u u2

let test_roundtrip_plain () =
  let st = setup ~proto:"ping-pong" ~depth:"6" () in
  roundtrip "ping-pong" st (universe st);
  let st = setup ~proto:"token-ring:3" ~depth:"4" () in
  roundtrip "token-ring:3" st (universe st);
  let st = setup ~proto:"two-generals" ~depth:"5" () in
  roundtrip "two-generals" st (universe st);
  (* full mode and a truncated universe keep their status through the
     round trip (stats line includes both) *)
  let st = setup ~proto:"chatter" ~depth:"3" ~max_states:"10" () in
  let u = universe ~mode:`Full st in
  check tbool "truncated fixture" true (Universe.status u <> Universe.Complete);
  roundtrip "chatter full truncated" st u

let test_roundtrip_por_faults () =
  let st = setup ~proto:"token-ring:3" ~depth:"4" () in
  roundtrip "token-ring:3 por" st (universe ~reduce:"por" st);
  (* por with attached independence (the enumerate semantics) prunes
     differently but serializes the same way *)
  let st = setup ~proto:"ping-pong" ~depth:"6" () in
  roundtrip "ping-pong por+indep" st (universe ~reduce:"por" ~indep:true st);
  let st = setup ~proto:"ping-pong" ~depth:"6" ~faults:"drop:p0->p1" () in
  roundtrip "ping-pong dropped" st (universe st);
  let st = setup ~proto:"two-generals" ~depth:"5" ~faults:"crash:p1@2" () in
  roundtrip "two-generals crashed" st (universe st)

let test_serialize_sym () =
  let st = setup ~proto:"mesh" ~depth:"3" () in
  let u = universe ~reduce:"sym" st in
  match Universe.serialize u with
  | Ok _ -> Alcotest.fail "symmetry-reduced universe must refuse to serialize"
  | Error _ -> ()

let test_deserialize_garbage () =
  let st = setup ~proto:"ping-pong" ~depth:"4" () in
  let bad what s =
    match Universe.deserialize st.Query.spec s with
    | Ok _ -> Alcotest.failf "deserialize accepted %s" what
    | Error _ -> ()
  in
  bad "empty input" "";
  bad "garbage" "this is not a universe body";
  let body = get (Universe.serialize (universe st)) in
  bad "truncated body" (String.sub body 0 (String.length body / 2));
  bad "trailing bytes" (body ^ "x");
  (* a body from one spec must not decode against another arity *)
  let st3 = setup ~proto:"token-ring:3" () in
  (match Universe.deserialize st3.Query.spec body with
  | Ok _ -> Alcotest.fail "deserialize accepted a wrong-arity spec"
  | Error _ -> ())

(* The body bytes are what the snapshot container's version stands for
   (HPLSNAP2): a change to any of these digests needs a new container
   version. *)
let test_body_digests () =
  List.iter
    (fun (what, st, digest) ->
      let body = get (Universe.serialize (universe st)) in
      check tstr (what ^ ": body FNV-64") digest (Fnv.hex64 (Fnv.fnv64 body)))
    [
      ("ring -d 6", setup ~proto:"ring" ~depth:"6" (), "b32bc19b3a4feaa4");
      ("quorum -d 8", setup ~proto:"quorum" ~depth:"8" (), "360ad51243a64764");
      ( "token-ring:4 crash-any:1",
        setup ~proto:"token-ring:4" ~faults:"crash-any:1" (),
        "7dbeb56b1efa1b52" );
      ( "ring -d 6 --max-states 40",
        setup ~proto:"ring" ~depth:"6" ~max_states:"40" (),
        "352962ac3f06aa57" );
    ]

(* A test-side reading of the HPLSNAP2 body: the bytes up to the tries (the
   header and the string table), each process's trie with class [c] at
   index [c] (class 0, the empty history, is a placeholder and is not
   written), then one (parent, pid, class id) triple per computation
   after the root. A class is its parent class, its event's kind (0
   internal, 1 send, 2 receive), and for a message its peer, payload
   string id and, for a receive, the seq; an internal event has its
   tag's string id. *)
type cls = { up : int; kind : int; peer : int; str : int; seq : int }

type body = { head : string; tries : cls array array; comps : (int * int * int) array }

let empty_class = { up = -1; kind = 0; peer = 0; str = 0; seq = 0 }

let decode_body body =
  let pos = ref 0 in
  let u8 () =
    let v = Char.code body.[!pos] in
    incr pos;
    v
  in
  let i32 () =
    let v = Int32.to_int (String.get_int32_le body !pos) in
    pos := !pos + 4;
    v
  in
  ignore (u8 ());
  ignore (i32 ());
  (match u8 () with 0 -> () | 1 -> ignore (i32 ()) | _ -> pos := !pos + 8);
  ignore (u8 ());
  let n = i32 () in
  for _ = 1 to i32 () do
    let k = i32 () in
    pos := !pos + k
  done;
  let head = String.sub body 0 !pos in
  let tries =
    Array.init n (fun _ ->
        Array.init (i32 ()) (fun c ->
            if c = 0 then empty_class
            else
              let up = i32 () in
              let kind = u8 () in
              if kind = 0 then { empty_class with up; str = i32 () }
              else
                let peer = i32 () in
                let str = i32 () in
                { up; kind; peer; str; seq = (if kind = 2 then i32 () else 0) }))
  in
  let comps =
    Array.init (i32 () - 1) (fun _ ->
        let parent = i32 () in
        let pid = i32 () in
        (parent, pid, i32 ()))
  in
  { head; tries; comps }

let encode_body { head; tries; comps } =
  let b = Buffer.create (String.length head + (12 * Array.length comps)) in
  let i32 v = Buffer.add_int32_le b (Int32.of_int v) in
  Buffer.add_string b head;
  Array.iter
    (fun t ->
      i32 (Array.length t);
      for c = 1 to Array.length t - 1 do
        let k = t.(c) in
        i32 k.up;
        Buffer.add_uint8 b k.kind;
        if k.kind <> 0 then i32 k.peer;
        i32 k.str;
        if k.kind = 2 then i32 k.seq
      done)
    tries;
  i32 (Array.length comps + 1);
  Array.iter
    (fun (parent, pid, cid) ->
      i32 parent;
      i32 pid;
      i32 cid)
    comps;
  Buffer.contents b

(* Bodies that frame correctly but describe no universe, or describe one
   numbered differently from enumeration: each breaks one invariant
   [deserialize] checks. The body derives [lseq] and a send's [seq]
   from the parent class, so neither can be written wrong. *)
let test_deserialize_hostile () =
  let st = setup ~proto:"chatter:2" ~depth:"4" () in
  let body = get (Universe.serialize (universe st)) in
  let b = decode_body body in
  check tbool "decoder round trip" true (String.equal body (encode_body b));
  let rejects what expected b =
    match Universe.deserialize st.Query.spec (encode_body b) with
    | Ok _ -> Alcotest.failf "deserialize accepted %s" what
    | Error e ->
        if not (contains e expected) then
          Alcotest.failf "%s: error %S does not say %S" what e expected
  in
  let with_class p c k =
    let tries = Array.map Array.copy b.tries in
    tries.(p).(c) <- k;
    { b with tries }
  in
  let with_comp k r =
    let comps = Array.copy b.comps in
    comps.(k) <- r;
    { b with comps }
  in
  (* comps.(k) describes computation k + 1 *)
  let find_comp f =
    let rec go k =
      if k >= Array.length b.comps then Alcotest.fail "no such computation"
      else if f k b.comps.(k) then k
      else go (k + 1)
    in
    go 0
  in
  let class_of (_, p, c) = b.tries.(p).(c) in
  let last = Array.length b.comps - 1 in
  (* the HPLSNAP1 body's invariants that this one can still express *)
  let up, p, c = b.comps.(last) in
  rejects "parent not before child" "not before child"
    (with_comp last (last + 1, p, c));
  (* the first computation to receive, with a first-event receive *)
  let r =
    find_comp (fun _ t -> (class_of t).kind = 2 && (class_of t).up = 0)
  in
  let _, rp, rc = b.comps.(r) in
  let received = b.tries.(rp).(rc) in
  let again = Array.length b.tries.(rp) in
  rejects "receive of an already-received message" "not in flight"
    {
      b with
      tries =
        Array.mapi
          (fun p t -> if p = rp then Array.append t [| { received with up = rc } |] else t)
          b.tries;
      comps = Array.append b.comps [| (r + 1, rp, again) |];
    };
  rejects "receive of a never-sent message" "not in flight"
    (with_class rp rc { received with seq = received.seq + 100 });
  (* the trie's invariants, one body each *)
  let t0 = b.tries.(0) in
  let k = Array.length t0 - 1 in
  rejects "a class whose parent class is not earlier" "not earlier"
    (with_class 0 k { (t0.(k)) with up = k });
  rejects "two classes with the same (parent, event)" "same step"
    (with_class 0 k t0.(1));
  rejects "a class id out of range" "out of range"
    (with_comp last (up, p, Array.length b.tries.(p)));
  (* two consecutive sibling classes swap ids everywhere: the same
     universe, numbered otherwise than enumeration numbers it *)
  let sp, sc =
    let rec go p c =
      if p >= Array.length b.tries then Alcotest.fail "no sibling classes"
      else if c + 1 >= Array.length b.tries.(p) then go (p + 1) 1
      else if b.tries.(p).(c).up = b.tries.(p).(c + 1).up then (p, c)
      else go p (c + 1)
    in
    go 0 1
  in
  let swap c = if c = sc then sc + 1 else if c = sc + 1 then sc else c in
  rejects "a class first reached out of order" "out of order"
    {
      b with
      tries =
        Array.mapi
          (fun p t ->
            if p <> sp then t
            else
              Array.init (Array.length t) (fun c ->
                  let k = t.(swap c) in
                  if c = 0 then k else { k with up = swap k.up }))
          b.tries;
      comps =
        Array.map
          (fun (up, p, c) -> if p = sp then (up, p, swap c) else (up, p, c))
          b.comps;
    };
  (* the last computation extending a class other than the empty one
     claims class 1, whose parent is the empty class *)
  let x =
    let rec go k = if (class_of b.comps.(k)).up > 0 then k else go (k - 1) in
    go last
  in
  let xu, xp, _ = b.comps.(x) in
  rejects "a class that does not extend the parent computation's class"
    "does not extend"
    (with_comp x (xu, xp, 1));
  rejects "a class no computation reaches" "never reached"
    {
      b with
      tries =
        Array.mapi
          (fun p t ->
            if p = rp then Array.append t [| { received with seq = received.seq + 100 } |]
            else t)
          b.tries;
    };
  (* the rule, depth and order checks *)
  let i = find_comp (fun _ t -> (class_of t).kind = 0) in
  let _, ip, ic = b.comps.(i) in
  let payload = b.tries.(rp).(rc).str in
  rejects "an internal event the rule never takes" "not a step of the process's rule"
    (with_class ip ic { (b.tries.(ip).(ic)) with str = payload });
  let shallow = Bytes.of_string b.head in
  Bytes.set_int32_le shallow 1 2l;
  rejects "a computation deeper than the header's depth" "deeper than"
    { b with head = Bytes.to_string shallow };
  rejects "a computation stored twice" "enumeration order"
    { b with comps = Array.append b.comps [| b.comps.(last) |] }

(* -- Snapshot container --------------------------------------------------- *)

let test_snapshot_roundtrip () =
  let dir = temp_dir () in
  Fun.protect
    ~finally:(fun () -> rm_rf dir)
    (fun () ->
      let st = setup ~proto:"two-generals" ~depth:"5" () in
      let u = universe st in
      let key = "test|two-generals|d5" in
      get (Snapshot.save ~dir ~key u);
      (match Snapshot.load ~dir ~key st.Query.spec with
      | Ok u2 -> assert_same_universe "snapshot" st u u2
      | Error Snapshot.Absent -> Alcotest.fail "snapshot vanished"
      | Error (Snapshot.Cache_invalid m) ->
          Alcotest.failf "fresh snapshot invalid: %s" m);
      (* overwriting with a different universe under the same key wins *)
      let st2 = setup ~proto:"two-generals" ~depth:"3" () in
      let u3 = universe st2 in
      get (Snapshot.save ~dir ~key u3);
      match Snapshot.load ~dir ~key st2.Query.spec with
      | Ok u4 -> assert_same_universe "snapshot overwrite" st2 u3 u4
      | Error _ -> Alcotest.fail "overwritten snapshot unreadable")

let test_snapshot_absent_mismatch () =
  let dir = temp_dir () in
  Fun.protect
    ~finally:(fun () -> rm_rf dir)
    (fun () ->
      let st = setup ~proto:"ping-pong" ~depth:"4" () in
      (match Snapshot.load ~dir ~key:"never-saved" st.Query.spec with
      | Error Snapshot.Absent -> ()
      | Error (Snapshot.Cache_invalid m) ->
          Alcotest.failf "missing file reported invalid: %s" m
      | Ok _ -> Alcotest.fail "missing snapshot loaded");
      (* a file whose embedded key disagrees with the requested one (a
         filename-hash collision or a stale rename) must be invalid,
         not silently served *)
      let key = "the real key" in
      get (Snapshot.save ~dir ~key (universe st));
      let other = "an impostor key" in
      Sys.rename (Snapshot.path_of ~dir ~key) (Snapshot.path_of ~dir ~key:other);
      match Snapshot.load ~dir ~key:other st.Query.spec with
      | Error (Snapshot.Cache_invalid _) -> ()
      | Error Snapshot.Absent -> Alcotest.fail "renamed snapshot absent"
      | Ok _ -> Alcotest.fail "key mismatch served a universe")

(* Seeded fuzz: truncate and corrupt a snapshot at random offsets. Every
   damaged load must come back Cache_invalid — never Ok with a wrong
   universe — and the intact bytes must keep loading a universe whose
   atom extent matches fresh enumeration. *)
let test_snapshot_fuzz () =
  let dir = temp_dir () in
  Fun.protect
    ~finally:(fun () -> rm_rf dir)
    (fun () ->
      let st = setup ~proto:"two-generals" ~depth:"5" () in
      let u = universe st in
      let key = "fuzz|two-generals|d5" in
      get (Snapshot.save ~dir ~key u);
      let path = Snapshot.path_of ~dir ~key in
      let good = In_channel.with_open_bin path In_channel.input_all in
      let len = String.length good in
      let write s =
        Out_channel.with_open_bin path (fun oc ->
            Out_channel.output_string oc s)
      in
      let expect_invalid what =
        match Snapshot.load ~dir ~key st.Query.spec with
        | Error (Snapshot.Cache_invalid _) -> ()
        | Error Snapshot.Absent -> Alcotest.failf "%s: reported absent" what
        | Ok u2 ->
            (* the one excuse for Ok would be an unscathed universe —
               and damage within the file can never produce one without
               beating the checksum *)
            Alcotest.failf "%s: served a universe (stats %S vs good %S)" what
              (stats_str u2) (stats_str u)
      in
      let rng = Random.State.make [| 0xC0FFEE |] in
      for _ = 1 to 40 do
        let cut = Random.State.int rng len in
        write (String.sub good 0 cut);
        expect_invalid (Printf.sprintf "truncated at %d/%d" cut len)
      done;
      for _ = 1 to 40 do
        let pos = Random.State.int rng len in
        let b = Bytes.of_string good in
        Bytes.set b pos
          (Char.chr (Char.code (Bytes.get b pos) lxor (1 + Random.State.int rng 255)));
        write (Bytes.to_string b);
        expect_invalid (Printf.sprintf "flipped byte at %d/%d" pos len)
      done;
      (* restore and cross-check the answer against fresh enumeration *)
      write good;
      match Snapshot.load ~dir ~key st.Query.spec with
      | Error _ -> Alcotest.fail "restored snapshot unreadable"
      | Ok u2 ->
          let e1 = Query.run_extent st u ~atom:"attack"
          and e2 = Query.run_extent st u2 ~atom:"attack" in
          check tstr "extent after recovery" e1.Query.out e2.Query.out)

(* The container around a body, as [Snapshot.save] writes it: magic,
   key length, key, FNV-1a-64 of the body, body length, body. *)
let container ~key body =
  let b = Buffer.create (String.length body + 64) in
  Buffer.add_string b "HPLSNAP2";
  Buffer.add_int32_le b (Int32.of_int (String.length key));
  Buffer.add_string b key;
  Buffer.add_int64_le b (Fnv.fnv64 body);
  Buffer.add_int32_le b (Int32.of_int (String.length body));
  Buffer.add_string b body;
  Buffer.contents b

module Proj = Hashtbl.Make (struct
  type t = Event.t list

  let equal = List.equal Event.equal
  let hash es = List.fold_left (fun h e -> (h * 31) + Event.hash e) 0 es land max_int
end)

module Traces = Hashtbl.Make (Trace)

(* What a loaded universe must be, read naively: its computations are
   distinct computations of the spec, and two computations share a
   process's class id iff their projections on it are equal. *)
let assert_valid_universe what spec u =
  let seen = Traces.create 64 in
  Universe.iter
    (fun i z ->
      if not (Spec.valid spec z) then
        Alcotest.failf "%s: computation %d is not a computation of the spec"
          what i;
      match Traces.find_opt seen z with
      | Some j -> Alcotest.failf "%s: computations %d and %d are equal" what j i
      | None -> Traces.add seen z i)
    u;
  List.iter
    (fun p ->
      let col = Universe.class_ids u p in
      let id_of = Proj.create 64 and first = Hashtbl.create 64 in
      Universe.iter
        (fun i z ->
          let pr = Trace.proj z p in
          (match Proj.find_opt id_of pr with
          | Some id when id <> col.(i) ->
              Alcotest.failf "%s: computation %d: one %s projection, class ids %d and %d"
                what i (Pid.to_string p) id col.(i)
          | Some _ -> ()
          | None -> Proj.add id_of pr col.(i));
          match Hashtbl.find_opt first col.(i) with
          | Some j ->
              if not (List.equal Event.equal (Trace.proj (Universe.comp u j) p) pr)
              then
                Alcotest.failf "%s: %s class id %d names two projections" what
                  (Pid.to_string p) col.(i)
          | None -> Hashtbl.add first col.(i) i)
        u)
    (Spec.pids spec)

(* One seeded change to a body: a flipped byte, a small integer written
   over four bytes, a truncation, a slice copied over another, a slice
   cut out, or one field of a class or a computation set to a small
   value (which reaches the checks behind the framing far more often). *)
let mutate rng body =
  let len = String.length body in
  let b = Bytes.of_string body in
  let slice () = 1 + Random.State.int rng (min 64 (len / 2)) in
  let small () = Random.State.int rng 8 in
  match Random.State.int rng 6 with
  | 5 ->
      let d = decode_body body in
      let p = Random.State.int rng (Array.length d.tries) in
      let t = d.tries.(p) in
      if Random.State.bool rng && Array.length t > 1 then begin
        let c = 1 + Random.State.int rng (Array.length t - 1) in
        let k = t.(c) in
        let field, k =
          match Random.State.int rng 5 with
          | 0 -> ("parent", { k with up = small () })
          | 1 -> ("kind", { k with kind = Random.State.int rng 3 })
          | 2 -> ("peer", { k with peer = small () })
          | 3 -> ("string", { k with str = small () })
          | _ -> ("seq", { k with seq = small () })
        in
        let tries = Array.map Array.copy d.tries in
        tries.(p).(c) <- k;
        (Printf.sprintf "p%d class %d %s" p c field, encode_body { d with tries })
      end
      else begin
        let i = Random.State.int rng (Array.length d.comps) in
        let up, q, c = d.comps.(i) in
        let v = small () in
        let field, r =
          match Random.State.int rng 3 with
          | 0 -> ("parent", (max 0 (up - v), q, c))
          | 1 -> ("pid", (up, v mod Array.length d.tries, c))
          | _ -> ("class", (up, q, v))
        in
        let comps = Array.copy d.comps in
        comps.(i) <- r;
        (Printf.sprintf "computation %d %s" (i + 1) field, encode_body { d with comps })
      end
  | 0 ->
      let i = Random.State.int rng len in
      Bytes.set b i (Char.chr (Char.code body.[i] lxor (1 + Random.State.int rng 255)));
      (Printf.sprintf "flip at %d" i, Bytes.to_string b)
  | 1 ->
      let i = Random.State.int rng (len - 3) and v = Random.State.int rng 16 in
      Bytes.set_int32_le b i (Int32.of_int v);
      (Printf.sprintf "%d written at %d" v i, Bytes.to_string b)
  | 2 ->
      let cut = Random.State.int rng len in
      (Printf.sprintf "truncated at %d" cut, String.sub body 0 cut)
  | 3 ->
      let k = slice () in
      let src = Random.State.int rng (len - k + 1)
      and dst = Random.State.int rng (len - k + 1) in
      Bytes.blit_string body src b dst k;
      (Printf.sprintf "%d bytes from %d copied to %d" k src dst, Bytes.to_string b)
  | _ ->
      let k = slice () in
      let at = Random.State.int rng (len - k + 1) in
      ( Printf.sprintf "%d bytes cut at %d" k at,
        String.sub body 0 at ^ String.sub body (at + k) (len - at - k) )

(* Seeded fuzz behind the checksum: change the body, write it with its
   checksum recomputed, and load. No exception may escape, and a load
   is either Cache_invalid or a universe that is valid as read naively
   — never a structurally wrong one. *)
let test_snapshot_body_fuzz () =
  let dir = temp_dir () in
  Fun.protect
    ~finally:(fun () -> rm_rf dir)
    (fun () ->
      let rng = Random.State.make [| 0xB0D7 |] in
      List.iter
        (fun (proto, depth) ->
          let st = setup ~proto ~depth () in
          let spec = st.Query.spec in
          let u = universe st in
          let key = Printf.sprintf "body-fuzz|%s|d%s" proto depth in
          get (Snapshot.save ~dir ~key u);
          let path = Snapshot.path_of ~dir ~key in
          let body = get (Universe.serialize u) in
          check tstr (proto ^ ": test-side container")
            (In_channel.with_open_bin path In_channel.input_all)
            (container ~key body);
          (match Snapshot.load ~dir ~key spec with
          | Ok u2 -> assert_valid_universe (proto ^ " intact") spec u2
          | Error _ -> Alcotest.failf "%s: intact snapshot refused" proto);
          for k = 1 to 300 do
            let what, damaged = mutate rng body in
            let what = Printf.sprintf "%s -d %s, mutation %d (%s)" proto depth k what in
            Out_channel.with_open_bin path (fun oc ->
                Out_channel.output_string oc (container ~key damaged));
            match Snapshot.load ~dir ~key spec with
            | Error (Snapshot.Cache_invalid _) -> ()
            | Error Snapshot.Absent -> Alcotest.failf "%s: reported absent" what
            | Ok u2 -> assert_valid_universe what spec u2
            | exception e ->
                Alcotest.failf "%s: %s escaped" what (Printexc.to_string e)
          done)
        [ ("two-generals", "5"); ("ring", "6") ])

(* A file in the previous format is refused for its version, so it is
   re-enumerated and overwritten. *)
let test_snapshot_old_format () =
  let dir = temp_dir () in
  Fun.protect
    ~finally:(fun () -> rm_rf dir)
    (fun () ->
      let st = setup ~proto:"two-generals" ~depth:"5" () in
      let key = "old-format|two-generals|d5" in
      get (Snapshot.save ~dir ~key (universe st));
      let path = Snapshot.path_of ~dir ~key in
      let raw = In_channel.with_open_bin path In_channel.input_all in
      check tstr "current magic" "HPLSNAP2" (String.sub raw 0 8);
      Out_channel.with_open_bin path (fun oc ->
          Out_channel.output_string oc
            ("HPLSNAP1" ^ String.sub raw 8 (String.length raw - 8)));
      match Snapshot.load ~dir ~key st.Query.spec with
      | Error (Snapshot.Cache_invalid m) ->
          if not (contains m "format version") then
            Alcotest.failf "HPLSNAP1 refused for %S, not its format version" m
      | Error Snapshot.Absent -> Alcotest.fail "HPLSNAP1 file reported absent"
      | Ok _ -> Alcotest.fail "HPLSNAP1 file loaded")

(* A load builds one event per class and no trace. Decoding and
   re-interning every computation's event, as the HPLSNAP1 body
   required, cost about 116 minor words per computation on this
   universe. *)
let test_snapshot_load_words () =
  let dir = temp_dir () in
  Fun.protect
    ~finally:(fun () -> rm_rf dir)
    (fun () ->
      let st = setup ~proto:"ring" ~depth:"8" () in
      let u = universe st in
      let key = "load-words|ring|d8" in
      get (Snapshot.save ~dir ~key u);
      let load () =
        match Snapshot.load ~dir ~key st.Query.spec with
        | Ok u2 -> u2
        | Error _ -> Alcotest.fail "snapshot refused"
      in
      ignore (load ());
      let w0 = Gc.minor_words () in
      let u2 = load () in
      let words = (Gc.minor_words () -. w0) /. float_of_int (Universe.size u2) in
      check tint "size" (Universe.size u) (Universe.size u2);
      check tbool
        (Printf.sprintf "minor words per computation: %.1f < 24" words)
        true (words < 24.))

(* File names, [-f] cache keys and the benchmark's answer digests all go
   through [Fnv.fnv64]: its digests are the published FNV-1a-64 ones,
   and hashing allocates nothing per byte. *)
let test_fnv_vectors () =
  List.iter
    (fun (s, h) -> check tstr (Printf.sprintf "fnv64 %S" s) h (Fnv.hex64 (Fnv.fnv64 s)))
    [ ("", "cbf29ce484222325"); ("a", "af63dc4c8601ec8c"); ("foobar", "85944171f73967e8") ];
  let rng = Random.State.make [| 0xF17 |] in
  let s = String.init 100_000 (fun _ -> Char.chr (Random.State.int rng 256)) in
  let reference = ref 0xcbf29ce484222325L in
  String.iter
    (fun c ->
      reference :=
        Int64.mul (Int64.logxor !reference (Int64.of_int (Char.code c))) 0x100000001b3L)
    s;
  check tstr "100 KB against a byte loop" (Fnv.hex64 !reference) (Fnv.hex64 (Fnv.fnv64 s));
  let w0 = Gc.minor_words () in
  ignore (Sys.opaque_identity (Fnv.fnv64 s));
  let words = Gc.minor_words () -. w0 in
  check tbool (Printf.sprintf "100 KB hashed in %.0f minor words" words) true (words < 64.)

(* -- LRU cache ------------------------------------------------------------ *)

let test_cache_lru () =
  let u2 = universe (setup ~proto:"ping-pong" ~depth:"2" ())
  and u3 = universe (setup ~proto:"ping-pong" ~depth:"3" ())
  and u4 = universe (setup ~proto:"ping-pong" ~depth:"4" ()) in
  let sz = Universe.size in
  (* budget holds any two of the three; the cold entry is the victim *)
  let c = Cache.create ~max_states:(sz u2 + sz u3 + sz u4 - 1) in
  Cache.add c "a" u2;
  Cache.add c "b" u3;
  check tbool "refresh a" true (Cache.find c "a" <> None);
  Cache.add c "c" u4;
  check tbool "b evicted (LRU)" true (Cache.find c "b" = None);
  check tbool "a survives (refreshed)" true (Cache.find c "a" <> None);
  check tbool "c cached" true (Cache.find c "c" <> None);
  check tint "one eviction" 1 (Cache.evictions c);
  check tint "two entries" 2 (Cache.entries c);
  check tint "stored weight" (sz u2 + sz u4) (Cache.stored_states c);
  (* re-adding an existing key is a no-op *)
  Cache.add c "a" u2;
  check tint "re-add keeps entries" 2 (Cache.entries c);
  check tint "re-add keeps evictions" 1 (Cache.evictions c);
  (* a universe larger than the whole budget is never cached *)
  let tiny = Cache.create ~max_states:(sz u4 - 1) in
  Cache.add tiny "big" u4;
  check tint "oversize not cached" 0 (Cache.entries tiny);
  check tbool "oversize not found" true (Cache.find tiny "big" = None);
  Alcotest.check_raises "bad budget" (Invalid_argument
    "Cache.create: max_states < 1") (fun () -> ignore (Cache.create ~max_states:0))

(* -- cache keys ------------------------------------------------------------ *)

let test_cache_key () =
  let key ?proto:(p = "ping-pong") ?depth ?faults ?max_states
      ?(mode = `Canonical) ?(reduce = "none") ?(indep = false) () =
    let st = setup ~proto:p ?depth ?faults ?max_states () in
    let r = get (Query.resolve_reduce st ~mode ~indep reduce) in
    Serve.cache_key st ~mode ~reduce:r
  in
  let base = key () in
  check tstr "deterministic" base (key ());
  let distinct = [
    ("depth", key ~depth:"3" ());
    ("faults", key ~faults:"drop:p0->p1" ());
    ("max-states", key ~max_states:"7" ());
    ("mode", key ~mode:`Full ());
    ("reduce", key ~reduce:"por" ());
    ("protocol", key ~proto:"two-generals" ());
    ("params", key ~proto:"token-ring:4" ());
  ] in
  List.iter
    (fun (what, k) ->
      if String.equal k base then
        Alcotest.failf "%s does not separate cache keys (%s)" what k)
    distinct;
  (* por with and without attached independence prune differently, so
     their keys must differ even though Reduction.label agrees *)
  check tbool "indep bit" true (key ~reduce:"por" () <> key ~reduce:"por" ~indep:true ())

(* -- in-process server helpers --------------------------------------------- *)

let server ?(max_states = 10_000_000) ?cache_dir () =
  Serve.create { Serve.max_cached_states = max_states; cache_dir }

let req fields = Json.to_string (Json.Obj fields)

let reply t fields =
  match Json.parse (Serve.handle_line t (req fields)) with
  | Ok j -> j
  | Error e -> Alcotest.failf "unparseable reply: %s" e

let jstr k j =
  match Json.member k j with Some (Json.Str s) -> s | _ -> ""

let jint k j =
  match Json.int_member k j with
  | Some n -> n
  | None -> Alcotest.failf "reply missing int %S" k

let counter k j =
  match Json.member "counters" j with
  | Some c -> jint k c
  | None -> Alcotest.failf "reply missing counters"

(* The conformance assertion: a server reply must carry the exact bytes
   and exit code the CLI code path produces. *)
let assert_conform t what fields (oracle : Query.outcome) =
  let j = reply t fields in
  check tstr (what ^ ": answer bytes") oracle.Query.out (jstr "answer" j);
  check tstr (what ^ ": error bytes") oracle.Query.err (jstr "error" j);
  check tint (what ^ ": exit code") oracle.Query.code (jint "exit" j)

let oracle_err m = { Query.out = ""; err = "hpl: " ^ m ^ "\n"; code = 2 }

(* Compute the CLI-side outcome for one request, sharing the universe
   across ops exactly as the CLI's per-invocation enumeration would
   (each op re-enumerates to the identical universe). *)
let oracle ?proto ?file ?depth ?faults ?max_states ?(reduce = "none") ~op
    ?formula_text ?atom () =
  match Query.resolve ?proto ?file ?depth ?faults ?max_states () with
  | Error m -> oracle_err m
  | Ok st -> (
      let indep = op = "enumerate-stats" in
      match Query.resolve_reduce st ~mode:`Canonical ~indep reduce with
      | Error m -> oracle_err m
      | Ok r -> (
          let u = Query.enumerate ~mode:`Canonical st ~reduce:r in
          match op with
          | "knows" -> Query.run_knows st u
          | "extent" -> Query.run_extent st u ~atom:(Option.get atom)
          | "check" ->
              Query.run_check st u (formula (Option.get formula_text))
          | _ -> Query.run_stats u))

(* -- conformance battery ---------------------------------------------------- *)

(* Every registered protocol, four ops each: the server's answer bytes,
   error bytes and exit code must equal the CLI code path's, at the
   protocol's own depth (capped) under a state budget. *)
let test_conformance_registry () =
  let t = server () in
  List.iter
    (fun p ->
      let name = Protocol.name p in
      let depth = min (Protocol.suggested_depth p) 4 in
      let base =
        [
          ("protocol", Json.Str name);
          ("depth", Json.Int depth);
          ("max-states", Json.Int 2000);
        ]
      in
      let run what extra ~op ?formula_text ?atom () =
        assert_conform t
          (Printf.sprintf "%s %s" name what)
          (("op", Json.Str op) :: base @ extra)
          (oracle ~proto:name ~depth:(string_of_int depth) ~max_states:"2000"
             ~op ?formula_text ?atom ())
      in
      run "enumerate-stats" [] ~op:"enumerate-stats" ();
      run "knows" [] ~op:"knows" ();
      run "check true" [ ("formula", Json.Str "true") ] ~op:"check"
        ~formula_text:"true" ();
      (match Protocol.atoms_of (Protocol.default_instance p) with
      | [] -> ()
      | (a, _) :: _ ->
          run "extent" [ ("atom", Json.Str a) ] ~op:"extent" ~atom:a ());
      (* unknown atoms must fail with the CLI's exact one-liner *)
      run "extent unknown-atom" [ ("atom", Json.Str "no-such-atom") ]
        ~op:"extent" ~atom:"no-such-atom" ())
    (Protocol.Registry.list ())

(* Faults and reductions ride through the same pipeline: first declared
   scenario per protocol, por everywhere, sym where declared (and the
   identical rejection where not). *)
let test_conformance_faults_reduce () =
  let t = server () in
  List.iter
    (fun p ->
      match Protocol.fault_scenarios p with
      | [] -> ()
      | sc :: _ ->
          let name = Protocol.name p in
          let depth = min (Protocol.suggested_depth p) 4 in
          assert_conform t
            (Printf.sprintf "%s knows --faults %s" name sc)
            [
              ("op", Json.Str "knows");
              ("protocol", Json.Str name);
              ("depth", Json.Int depth);
              ("faults", Json.Str sc);
              ("max-states", Json.Int 2000);
            ]
            (oracle ~proto:name ~depth:(string_of_int depth) ~faults:sc
               ~max_states:"2000" ~op:"knows" ()))
    (Protocol.Registry.list ());
  List.iter
    (fun (name, reduce) ->
      assert_conform t
        (Printf.sprintf "%s enumerate-stats --reduce %s" name reduce)
        [
          ("op", Json.Str "enumerate-stats");
          ("protocol", Json.Str name);
          ("depth", Json.Int 4);
          ("reduce", Json.Str reduce);
        ]
        (oracle ~proto:name ~depth:"4" ~reduce ~op:"enumerate-stats" ()))
    [
      ("ping-pong", "por");
      ("token-ring:3", "por");
      ("mesh", "sym");
      ("mesh", "full");
      (* ping-pong declares no symmetry: both sides reject identically *)
      ("ping-pong", "sym");
      ("ping-pong", "bogus");
    ]

(* Requests that never reach a universe still conform on error bytes. *)
let test_conformance_errors () =
  let t = server () in
  assert_conform t "unknown protocol"
    [ ("op", Json.Str "knows"); ("protocol", Json.Str "no-such-protocol") ]
    (oracle ~proto:"no-such-protocol" ~op:"knows" ());
  assert_conform t "bad depth"
    [ ("op", Json.Str "knows"); ("protocol", Json.Str "ping-pong");
      ("depth", Json.Str "x") ]
    (oracle ~proto:"ping-pong" ~depth:"x" ~op:"knows" ());
  assert_conform t "bad faults"
    [ ("op", Json.Str "knows"); ("protocol", Json.Str "ping-pong");
      ("faults", Json.Str "explode:p0") ]
    (oracle ~proto:"ping-pong" ~faults:"explode:p0" ~op:"knows" ());
  assert_conform t "formula parse error"
    [ ("op", Json.Str "check"); ("protocol", Json.Str "ping-pong");
      ("formula", Json.Str "AG ((") ]
    (oracle_err
       (match Formula.parse "AG ((" with
       | Error e -> "parse error: " ^ e
       | Ok _ -> Alcotest.fail "bad formula parsed"));
  (* an oversized pid is a parse error like any other, not an internal
     error of the daemon *)
  let big = "K p99999999999999999999 p0_sent" in
  assert_conform t "oversized formula pid"
    [ ("op", Json.Str "check"); ("protocol", Json.Str "ring");
      ("depth", Json.Int 2); ("formula", Json.Str big) ]
    (oracle_err
       (match Formula.parse big with
       | Error e -> "parse error: " ^ e
       | Ok _ -> Alcotest.fail "oversized pid parsed"));
  (* a failing formula is exit 1 with the witness, same as the CLI *)
  assert_conform t "failing check"
    [ ("op", Json.Str "check"); ("protocol", Json.Str "token-ring");
      ("formula", Json.Str "AG holds0") ]
    (oracle ~proto:"token-ring" ~op:"check" ~formula_text:"AG holds0" ())

(* -- server protocol discipline -------------------------------------------- *)

let test_protocol_errors () =
  let t = server () in
  (* malformed frame: error reply, not a crash, and not a request *)
  let j = get (Json.parse (Serve.handle_line t "this is { not json")) in
  check tbool "malformed not ok" false (jstr "ok" j = "true");
  check tint "malformed exit 2" 2 (jint "exit" j);
  check tbool "malformed names the problem" true
    (String.length (jstr "error" j) > String.length "hpl: malformed frame: ");
  (* ids echo back verbatim, strings and numbers alike *)
  let j = reply t [ ("op", Json.Str "shutdown-nope"); ("id", Json.Str "abc") ] in
  check tstr "string id echoed" "abc" (jstr "id" j);
  let j = reply t [ ("op", Json.Str "server-stats"); ("id", Json.Int 42) ] in
  check tint "int id echoed" 42 (jint "id" j);
  (* missing op *)
  let j = reply t [ ("id", Json.Int 1) ] in
  check tint "missing op is exit 2" 2 (jint "exit" j);
  (* structured fields where scalars belong *)
  let j = reply t [ ("op", Json.Str "knows"); ("depth", Json.List []) ] in
  check tint "bad field type is exit 2" 2 (jint "exit" j);
  (* none of the above consulted the cache *)
  let j = reply t [ ("op", Json.Str "server-stats") ] in
  check tint "no requests counted" 0 (counter "requests" j);
  check tbool "errors counted" true (counter "errors" j >= 4);
  (* shutdown flips the stop flag *)
  check tbool "running" false (Serve.stopped t);
  let j = reply t [ ("op", Json.Str "shutdown") ] in
  check tint "shutdown ok" 0 (jint "exit" j);
  check tbool "stopped" true (Serve.stopped t)

(* Only enumerate-stats takes "reduce", as only the CLI's enumerate takes
   --reduce: a knowledge op naming it is a bad request, refused before
   any universe is built. *)
let test_reduce_field_rejected () =
  let t = server () in
  List.iter
    (fun (op, extra, reduce) ->
      let j =
        reply t
          ([ ("op", Json.Str op); ("protocol", Json.Str "ring");
             ("depth", Json.Int 4); ("reduce", Json.Str reduce) ]
          @ extra)
      in
      let what = Printf.sprintf "%s with reduce %s" op reduce in
      check tint (what ^ ": exit 2") 2 (jint "exit" j);
      check tstr (what ^ ": error names the field")
        (Printf.sprintf
           "hpl: field \"reduce\" is for enumerate-stats only; %s always \
            runs on the unreduced universe\n"
           op)
        (jstr "error" j))
    [
      ("knows", [], "sym");
      ("check", [ ("formula", Json.Str "true") ], "full");
      ("extent", [ ("atom", Json.Str "all_sent") ], "por");
    ];
  let j = reply t [ ("op", Json.Str "server-stats") ] in
  check tint "no universe requested" 0 (counter "requests" j)

(* -- cache behavior through the server -------------------------------------- *)

let test_server_cache_provenance () =
  let dir = temp_dir () in
  Fun.protect
    ~finally:(fun () -> rm_rf dir)
    (fun () ->
      let fields =
        [
          ("op", Json.Str "extent");
          ("protocol", Json.Str "two-generals");
          ("depth", Json.Int 5);
          ("atom", Json.Str "attack");
        ]
      in
      let t = server ~cache_dir:dir () in
      let j = reply t fields in
      check tstr "cold: miss" "miss" (jstr "cache" j);
      check tstr "cold: enumerated" "enumerated" (jstr "source" j);
      check tint "cold: snapshot written" 1 (counter "snapshot_write" j);
      let answer = jstr "answer" j in
      let j = reply t fields in
      check tstr "warm: hit" "hit" (jstr "cache" j);
      check tstr "warm: memory" "memory" (jstr "source" j);
      check tstr "warm: same answer" answer (jstr "answer" j);
      (* a fresh server over the same cache dir warm-starts from disk *)
      let t2 = server ~cache_dir:dir () in
      let j = reply t2 fields in
      check tstr "restart: miss" "miss" (jstr "cache" j);
      check tstr "restart: snapshot" "snapshot" (jstr "source" j);
      check tstr "restart: same answer" answer (jstr "answer" j);
      (* corrupt the snapshot: the server must re-enumerate (never a
         wrong answer) and overwrite the bad file *)
      let path = Sys.readdir dir in
      check tint "one snapshot file" 1 (Array.length path);
      let path = Filename.concat dir path.(0) in
      Out_channel.with_open_bin path (fun oc ->
          Out_channel.output_string oc "HPLSNAP1 but rotten");
      let t3 = server ~cache_dir:dir () in
      let j = reply t3 fields in
      check tstr "corrupt: enumerated" "enumerated" (jstr "source" j);
      check tint "corrupt: counted invalid" 1 (counter "snapshot_invalid" j);
      check tstr "corrupt: same answer" answer (jstr "answer" j);
      let t4 = server ~cache_dir:dir () in
      let j = reply t4 fields in
      check tstr "healed: snapshot again" "snapshot" (jstr "source" j);
      check tstr "healed: same answer" answer (jstr "answer" j);
      (* wall-clock budgets bypass the cache entirely *)
      let j = reply t4 (("max-seconds", Json.Str "30") :: fields) in
      check tstr "bypass: cache" "bypass" (jstr "cache" j);
      check tint "bypass: counted" 1 (counter "bypass" j);
      check tint "bypass: requests untouched" 1 (counter "requests" j))

(* A spec file edited between two identical frames: the cache key
   hashes the bytes that were elaborated, so the second frame misses
   and answers from the new text. *)
let test_server_spec_edit () =
  let dir = temp_dir () in
  Fun.protect
    ~finally:(fun () -> rm_rf dir)
    (fun () ->
      let path = Filename.concat dir "edit.hpl" in
      let write k =
        Out_channel.with_open_bin path (fun oc ->
            Printf.fprintf oc
              "protocol edit {\n\
              \  processes 2\n\
              \  depth 4\n\
              \  process 0 { when sends < %d => send \"m\" to 1 }\n\
              \  process 1 { when recvs < %d => recv }\n\
               }\n"
              k k)
      in
      let fields =
        [ ("op", Json.Str "enumerate-stats"); ("file", Json.Str path) ]
      in
      let size j =
        match Json.member "universe" j with
        | Some u -> jint "size" u
        | None -> Alcotest.fail "reply missing universe"
      in
      let t = server () in
      write 1;
      let j = reply t fields in
      check tstr "first frame: miss" "miss" (jstr "cache" j);
      check tint "one message: 3 computations" 3 (size j);
      check tstr "same text: hit" "hit" (jstr "cache" (reply t fields));
      write 2;
      let j = reply t fields in
      check tstr "edited spec: miss" "miss" (jstr "cache" j);
      check tint "two messages, either delivery order: 8 computations" 8
        (size j))

(* A [-f] spec whose one parameter [k] bounds each process's messages,
   with its default written in. *)
let write_param_spec path k =
  Out_channel.with_open_bin path (fun oc ->
      Printf.fprintf oc
        "protocol memo {\n\
        \  param k = %d min 1\n\
        \  processes 2\n\
        \  depth 4\n\
        \  process 0 { when sends < k => send \"m\" to 1 }\n\
        \  process 1 { when recvs < k => recv }\n\
         }\n"
        k)

let load_error arg =
  match Query.load arg with
  | Ok _ -> Alcotest.fail "a broken spec loaded"
  | Error e -> e

(* [-f] loads are memoized on the file's bytes and parameters: the same
   bytes give back the very instance, an edit or other parameters
   elaborate afresh, and a failed load is never stored *)
let test_load_memo () =
  let dir = temp_dir () in
  Fun.protect
    ~finally:(fun () -> rm_rf dir)
    (fun () ->
      let path = Filename.concat dir "memo.hpl" in
      let load arg = fst (get (Query.load arg)) in
      write_param_spec path 1;
      let a = load path in
      check tbool "unchanged bytes: the same instance" true (a == load path);
      check tbool "other parameters: another instance" false
        (a == load (path ^ ":2"));
      write_param_spec path 2;
      let b = load path in
      check tbool "edited bytes: a fresh instance" false (a == b);
      check tstr "the edit is read" "memo:2"
        (Hpl_protocols.Protocol.instance_name b);
      Out_channel.with_open_bin path (fun oc ->
          output_string oc "protocol memo {\n");
      let e = load_error path in
      check tstr "a failed load is not stored" e (load_error path);
      write_param_spec path 1;
      check tbool "restored bytes: the first instance again" true
        (a == load path))

(* An edit that breaks a cached spec is diagnosed on every frame: no
   memoized load, and no cached universe, answers for the broken text. *)
let test_server_spec_broken_edit () =
  let dir = temp_dir () in
  Fun.protect
    ~finally:(fun () -> rm_rf dir)
    (fun () ->
      let path = Filename.concat dir "broken.hpl" in
      let fields =
        [ ("op", Json.Str "enumerate-stats"); ("file", Json.Str path) ]
      in
      let t = server () in
      write_param_spec path 1;
      check tint "valid spec: exit 0" 0 (jint "exit" (reply t fields));
      let diagnosed text =
        Out_channel.with_open_bin path (fun oc -> output_string oc text);
        let cli = load_error path in
        for frame = 1 to 2 do
          let j = reply t fields in
          check tint (Printf.sprintf "frame %d: exit 2" frame) 2 (jint "exit" j);
          check tstr
            (Printf.sprintf "frame %d: the diagnostic" frame)
            ("hpl: " ^ cli ^ "\n") (jstr "error" j)
        done
      in
      diagnosed "protocol memo {\n";
      diagnosed "protocol memo { processes 0 }\n";
      write_param_spec path 1;
      let j = reply t fields in
      check tint "restored: exit 0" 0 (jint "exit" j);
      check tstr "restored: the cached universe" "hit" (jstr "cache" j))

(* Seeded random query stream against a deliberately tiny cache: LRU
   eviction mid-stream must never change an answer, malformed frames
   must not derail the session, and the counters must keep
   cache_hit + cache_miss = requests. *)
let test_property_stream () =
  let rng = Random.State.make [| 20260809 |] in
  let pool =
    [|
      ("ping-pong", "sent", Some "drop:p0->p1");
      ("two-generals", "attack", None);
      ("token-ring:3", "holds0", None);
    |]
  in
  (* budget below the largest pair of universes, so the stream keeps
     evicting; correctness must not notice *)
  let t = server ~max_states:12 () in
  let sent = ref 0 and malformed = ref 0 in
  for i = 1 to 80 do
    if i mod 9 = 0 then begin
      incr malformed;
      let j = get (Json.parse (Serve.handle_line t "{\"op\": ")) in
      check tint "malformed mid-stream" 2 (jint "exit" j)
    end
    else begin
      let proto, atom, faults = pool.(Random.State.int rng 3) in
      let depth = 2 + Random.State.int rng 4 in
      let faults = if Random.State.bool rng then faults else None in
      let reduce = if Random.State.int rng 4 = 0 then Some "por" else None in
      let op, extra =
        match Random.State.int rng 4 with
        | 0 -> ("knows", [])
        | 1 -> ("extent", [ ("atom", Json.Str atom) ])
        | 2 -> ("check", [ ("formula", Json.Str "true") ])
        | _ -> ("enumerate-stats", [])
      in
      (* drawn for every frame so the stream stays the same; only
         enumerate-stats takes it *)
      let reduce = if op = "enumerate-stats" then reduce else None in
      let opt k = function None -> [] | Some v -> [ (k, Json.Str v) ] in
      let fields =
        [ ("op", Json.Str op); ("protocol", Json.Str proto);
          ("depth", Json.Int depth); ("id", Json.Int i) ]
        @ opt "faults" faults @ opt "reduce" reduce @ extra
      in
      incr sent;
      let o =
        oracle ~proto ~depth:(string_of_int depth) ?faults
          ?reduce:(match reduce with Some r -> Some r | None -> None)
          ~op ?formula_text:(if op = "check" then Some "true" else None)
          ?atom:(if op = "extent" then Some atom else None) ()
      in
      assert_conform t (Printf.sprintf "stream #%d %s %s" i proto op) fields o;
      let j = reply t [ ("op", Json.Str "server-stats") ] in
      check tint
        (Printf.sprintf "invariant after #%d" i)
        (counter "requests" j)
        (counter "cache_hit" j + counter "cache_miss" j)
    end
  done;
  let j = reply t [ ("op", Json.Str "server-stats") ] in
  check tint "all queries reached the cache" !sent (counter "requests" j);
  check tbool "stream exercised eviction" true (counter "evictions" j > 0);
  check tbool "stream exercised hits" true (counter "cache_hit" j > 0);
  check tbool "malformed frames counted" true (counter "errors" j >= !malformed)

(* -- the obs counter surface ------------------------------------------------ *)

let test_obs_surface () =
  Hpl_obs.enable ();
  Fun.protect
    ~finally:(fun () ->
      Hpl_obs.reset ();
      Hpl_obs.disable ())
    (fun () ->
      Hpl_obs.reset ();
      let t = server () in
      let fields =
        [ ("op", Json.Str "knows"); ("protocol", Json.Str "ping-pong");
          ("depth", Json.Int 4) ]
      in
      ignore (reply t fields);
      ignore (reply t fields);
      check tint "server.requests" 2 (Hpl_obs.counter "server.requests");
      check tint "server.cache_miss" 1 (Hpl_obs.counter "server.cache_miss");
      check tint "server.cache_hit" 1 (Hpl_obs.counter "server.cache_hit");
      check tbool "serve.request spans" true
        (Hpl_obs.span_count "serve.request" = 2);
      ignore (Serve.handle_line t "garbage");
      check tint "server.bad_frames" 1 (Hpl_obs.counter "server.bad_frames"))

(* -- process-level conformance ---------------------------------------------- *)

(* The in-process battery shares code with the CLI by construction; these
   run the real binary both ways — `hpl <op> ...` against `hpl serve
   --pipe` — and compare bytes and exit codes across process boundaries. *)

(* cwd is _build/default/test under `dune runtest`, the workspace root
   under `dune exec` — accept both *)
let hpl_exe =
  let candidates = [ "../bin/hpl.exe"; "_build/default/bin/hpl.exe" ] in
  match List.find_opt Sys.file_exists candidates with
  | Some p -> ( try Unix.realpath p with Unix.Unix_error _ -> p)
  | None -> "../bin/hpl.exe"

let slurp f = In_channel.with_open_bin f In_channel.input_all

let run_cli args =
  let out = Filename.temp_file "hpl-cli" ".out"
  and err = Filename.temp_file "hpl-cli" ".err" in
  let cmd =
    String.concat " " (List.map Filename.quote (hpl_exe :: args))
    ^ Printf.sprintf " >%s 2>%s" (Filename.quote out) (Filename.quote err)
  in
  let code = Sys.command cmd in
  let o = slurp out and e = slurp err in
  Sys.remove out;
  Sys.remove err;
  (o, e, code)

let run_pipe_server requests =
  let inp = Filename.temp_file "hpl-serve" ".in"
  and out = Filename.temp_file "hpl-serve" ".out" in
  Out_channel.with_open_bin inp (fun oc ->
      List.iter
        (fun r ->
          Out_channel.output_string oc r;
          Out_channel.output_char oc '\n')
        requests);
  let cmd =
    Printf.sprintf "%s serve --pipe <%s >%s 2>/dev/null"
      (Filename.quote hpl_exe) (Filename.quote inp) (Filename.quote out)
  in
  let code = Sys.command cmd in
  check tint "pipe server exits 0" 0 code;
  let lines = String.split_on_char '\n' (String.trim (slurp out)) in
  Sys.remove inp;
  Sys.remove out;
  List.map (fun l -> get (Json.parse l)) lines

let test_conformance_process () =
  let cases =
    [
      ( "knows ping-pong",
        [ "knows"; "-s"; "ping-pong"; "-d"; "6" ],
        [ ("op", Json.Str "knows"); ("protocol", Json.Str "ping-pong");
          ("depth", Json.Int 6) ] );
      ( "extent two-generals",
        [ "extent"; "-s"; "two-generals"; "attack"; "-d"; "5" ],
        [ ("op", Json.Str "extent"); ("protocol", Json.Str "two-generals");
          ("depth", Json.Int 5); ("atom", Json.Str "attack") ] );
      ( "check valid",
        [ "check"; "-s"; "token-ring"; "AG (holds0 -> ~holds1)" ],
        [ ("op", Json.Str "check"); ("protocol", Json.Str "token-ring");
          ("formula", Json.Str "AG (holds0 -> ~holds1)") ] );
      ( "check failing",
        [ "check"; "-s"; "token-ring"; "AG holds0" ],
        [ ("op", Json.Str "check"); ("protocol", Json.Str "token-ring");
          ("formula", Json.Str "AG holds0") ] );
      ( "knows with faults",
        [ "knows"; "-s"; "ping-pong"; "--faults"; "drop:p0->p1" ],
        [ ("op", Json.Str "knows"); ("protocol", Json.Str "ping-pong");
          ("faults", Json.Str "drop:p0->p1") ] );
      ( "extent unknown atom",
        [ "extent"; "-s"; "ping-pong"; "bogus" ],
        [ ("op", Json.Str "extent"); ("protocol", Json.Str "ping-pong");
          ("atom", Json.Str "bogus") ] );
    ]
  in
  let replies = run_pipe_server (List.map (fun (_, _, f) -> req f) cases) in
  check tint "one reply per request" (List.length cases) (List.length replies);
  List.iter2
    (fun (what, args, _) j ->
      let out, err, code = run_cli args in
      check tstr (what ^ ": stdout = answer") out (jstr "answer" j);
      check tstr (what ^ ": stderr = error") err (jstr "error" j);
      check tint (what ^ ": exit code") code (jint "exit" j))
    cases replies

(* -- socket transport -------------------------------------------------------- *)

let test_socket () =
  let path =
    Filename.concat (Filename.get_temp_dir_name ())
      (Printf.sprintf "hpl-serve-%d.sock" (Unix.getpid ()))
  in
  if Sys.file_exists path then Sys.remove path;
  let pid =
    Unix.create_process hpl_exe
      [| hpl_exe; "serve"; "--socket"; path |]
      Unix.stdin Unix.stdout Unix.stderr
  in
  Fun.protect
    ~finally:(fun () ->
      (try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ());
      (try ignore (Unix.waitpid [] pid) with Unix.Unix_error _ -> ());
      if Sys.file_exists path then Sys.remove path)
    (fun () ->
      let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
      let rec connect tries =
        match Unix.connect fd (Unix.ADDR_UNIX path) with
        | () -> ()
        | exception Unix.Unix_error ((Unix.ENOENT | Unix.ECONNREFUSED), _, _)
          when tries > 0 ->
            Unix.sleepf 0.05;
            connect (tries - 1)
      in
      connect 100;
      let ic = Unix.in_channel_of_descr fd in
      let oc = Unix.out_channel_of_descr fd in
      let ask fields =
        output_string oc (req fields);
        output_char oc '\n';
        flush oc;
        get (Json.parse (input_line ic))
      in
      let j =
        ask
          [ ("op", Json.Str "extent"); ("protocol", Json.Str "ping-pong");
            ("depth", Json.Int 6); ("atom", Json.Str "sent"); ("id", Json.Int 1) ]
      in
      let out, _, code = run_cli [ "extent"; "-s"; "ping-pong"; "sent"; "-d"; "6" ] in
      check tstr "socket answer = CLI stdout" out (jstr "answer" j);
      check tint "socket exit = CLI exit" code (jint "exit" j);
      let j = ask [ ("op", Json.Str "shutdown") ] in
      check tint "shutdown over socket" 0 (jint "exit" j);
      close_out_noerr oc;
      let _, status = Unix.waitpid [] pid in
      check tbool "daemon exits cleanly" true (status = Unix.WEXITED 0);
      check tbool "socket file removed" false (Sys.file_exists path))

let suite =
  [
    Alcotest.test_case "serialize round-trips plain universes" `Quick
      test_roundtrip_plain;
    Alcotest.test_case "serialize round-trips por and faulty universes" `Quick
      test_roundtrip_por_faults;
    Alcotest.test_case "serialize refuses symmetry-reduced universes" `Quick
      test_serialize_sym;
    Alcotest.test_case "deserialize rejects damaged bodies" `Quick
      test_deserialize_garbage;
    Alcotest.test_case "serialize bodies are pinned" `Quick test_body_digests;
    Alcotest.test_case "deserialize rejects inconsistent bodies" `Quick
      test_deserialize_hostile;
    Alcotest.test_case "snapshot saves and reloads" `Quick
      test_snapshot_roundtrip;
    Alcotest.test_case "snapshot distinguishes absent from invalid" `Quick
      test_snapshot_absent_mismatch;
    Alcotest.test_case "snapshot fuzz: damage is never a wrong universe" `Quick
      test_snapshot_fuzz;
    Alcotest.test_case "cache LRU eviction and budget discipline" `Quick
      test_cache_lru;
    Alcotest.test_case "cache keys separate every parameter" `Quick
      test_cache_key;
    Alcotest.test_case "conformance: every registry protocol, four ops" `Quick
      test_conformance_registry;
    Alcotest.test_case "conformance: faults and reductions" `Quick
      test_conformance_faults_reduce;
    Alcotest.test_case "conformance: error replies carry CLI bytes" `Quick
      test_conformance_errors;
    Alcotest.test_case "frame discipline: malformed input, ids, shutdown"
      `Quick test_protocol_errors;
    Alcotest.test_case "knowledge ops reject the reduce field" `Quick
      test_reduce_field_rejected;
    Alcotest.test_case "cache provenance: memory, snapshot, corruption, bypass"
      `Quick test_server_cache_provenance;
    Alcotest.test_case "cache: an edited spec file misses" `Quick
      test_server_spec_edit;
    Alcotest.test_case "-f load memo: same bytes, same instance" `Quick
      test_load_memo;
    Alcotest.test_case "a broken spec edit is diagnosed every frame" `Quick
      test_server_spec_broken_edit;
    Alcotest.test_case "seeded stream: eviction never changes answers" `Quick
      test_property_stream;
    Alcotest.test_case "obs counters mirror the server's" `Quick
      test_obs_surface;
    Alcotest.test_case "process conformance: CLI vs --pipe server" `Quick
      test_conformance_process;
    Alcotest.test_case "socket transport round-trip" `Quick test_socket;
    Alcotest.test_case "fnv64 gives the published FNV-1a-64 digests" `Quick
      test_fnv_vectors;
    Alcotest.test_case "snapshot body fuzz: Error or a valid universe" `Quick
      test_snapshot_body_fuzz;
    Alcotest.test_case "snapshot refuses the HPLSNAP1 format" `Quick
      test_snapshot_old_format;
    Alcotest.test_case "snapshot load allocates < 24 words per computation"
      `Quick test_snapshot_load_words;
  ]
