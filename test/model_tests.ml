(* Tests for the §2 model: Pid, Pset, Msg, Event, Trace, Spec. *)
open Hpl_core

let check = Alcotest.check
let tbool = Alcotest.bool
let tint = Alcotest.int

let p0 = Fixtures.p0
let p1 = Fixtures.p1
let p2 = Fixtures.p2

(* -- pid / pset ------------------------------------------------------ *)

let test_pid_basics () =
  check tint "roundtrip" 7 (Pid.to_int (Pid.of_int 7));
  check tbool "equal" true (Pid.equal p0 (Pid.of_int 0));
  check tbool "not equal" false (Pid.equal p0 p1);
  Alcotest.check_raises "negative" (Invalid_argument "Pid.of_int: negative index")
    (fun () -> ignore (Pid.of_int (-1)))

let test_pid_names () =
  let p = Pid.of_int 42 in
  check Alcotest.string "default" "p42" (Pid.to_string p);
  Pid.set_name p "coordinator";
  check Alcotest.string "named" "coordinator" (Pid.to_string p);
  check Alcotest.(option string) "name" (Some "coordinator") (Pid.name p)

let test_pset_algebra () =
  let d = Pset.all 4 in
  check tint "all 4" 4 (Pset.cardinal d);
  let p = Pset.of_list [ p0; p1 ] in
  let q = Pset.compl ~all:d p in
  check tint "compl" 2 (Pset.cardinal q);
  check tbool "disjoint" true (Pset.disjoint p q);
  check tbool "union is all" true (Pset.equal d (Pset.union p q));
  check tbool "subset" true (Pset.subset p d);
  check tbool "not subset" false (Pset.subset d p);
  check tbool "empty inter" true (Pset.is_empty (Pset.inter p q))

let test_pset_compl_involution () =
  let d = Pset.all 5 in
  let p = Pset.of_list [ p1; p2 ] in
  check tbool "compl involutive" true
    (Pset.equal p (Pset.compl ~all:d (Pset.compl ~all:d p)))

(* -- msg / event ------------------------------------------------------ *)

let test_msg_identity () =
  let m1 = Fixtures.msg ~src:p0 ~dst:p1 ~seq:0 ~payload:"x" in
  let m2 = Fixtures.msg ~src:p0 ~dst:p1 ~seq:0 ~payload:"x" in
  let m3 = Fixtures.msg ~src:p0 ~dst:p1 ~seq:1 ~payload:"x" in
  check tbool "structural equal" true (Msg.equal m1 m2);
  check tbool "distinguished by seq" false (Msg.equal m1 m3);
  check tbool "key" true (Msg.key m1 = (p0, 0))

let test_event_constructors () =
  let m = Fixtures.msg ~src:p0 ~dst:p1 ~seq:0 ~payload:"x" in
  let s = Event.send ~pid:p0 ~lseq:0 m in
  let r = Event.receive ~pid:p1 ~lseq:0 m in
  let i = Event.internal ~pid:p0 ~lseq:1 "tick" in
  check tbool "send is send" true (Event.is_send s);
  check tbool "recv is recv" true (Event.is_receive r);
  check tbool "internal" true (Event.is_internal i);
  check tbool "message of send" true
    (match Event.message s with Some m' -> Msg.equal m m' | None -> false);
  check tbool "no message" true (Event.message i = None);
  Alcotest.check_raises "send pid mismatch"
    (Invalid_argument "Event.send: pid <> msg.src") (fun () ->
      ignore (Event.send ~pid:p1 ~lseq:0 m));
  Alcotest.check_raises "receive pid mismatch"
    (Invalid_argument "Event.receive: pid <> msg.dst") (fun () ->
      ignore (Event.receive ~pid:p0 ~lseq:0 m))

let test_event_on () =
  let e = Event.internal ~pid:p1 ~lseq:0 "t" in
  check tbool "on {p1}" true (Event.on e (Pset.singleton p1));
  check tbool "not on {p0}" false (Event.on e (Pset.singleton p0));
  check tbool "on D" true (Event.on e (Pset.all 2))

let test_event_order_total () =
  let m = Fixtures.msg ~src:p0 ~dst:p1 ~seq:0 ~payload:"x" in
  let es =
    [
      Event.send ~pid:p0 ~lseq:0 m;
      Event.receive ~pid:p1 ~lseq:0 m;
      Event.internal ~pid:p0 ~lseq:1 "a";
      Event.internal ~pid:p0 ~lseq:1 "b";
    ]
  in
  List.iter
    (fun a ->
      List.iter
        (fun b ->
          let c = Event.compare a b and c' = Event.compare b a in
          check tbool "antisymmetric" true
            (if Event.equal a b then c = 0 && c' = 0 else c * c' < 0))
        es)
    es

(* -- trace ------------------------------------------------------------ *)

let mk_send ~src ~dst ~lseq ~seq payload =
  Event.send ~pid:src ~lseq (Fixtures.msg ~src ~dst ~seq ~payload)

let mk_recv ~src ~dst ~lseq ~seq payload =
  Event.receive ~pid:dst ~lseq (Fixtures.msg ~src ~dst ~seq ~payload)

let simple_trace () =
  (* p0 sends m to p1; p1 receives; p0 does an internal step *)
  Trace.of_list
    [
      mk_send ~src:p0 ~dst:p1 ~lseq:0 ~seq:0 "m";
      mk_recv ~src:p0 ~dst:p1 ~lseq:0 ~seq:0 "m";
      Event.internal ~pid:p0 ~lseq:1 "t";
    ]

let test_trace_basics () =
  let z = simple_trace () in
  check tint "length" 3 (Trace.length z);
  check tbool "not empty" false (Trace.is_empty z);
  check tint "local p0" 2 (Trace.local_length z p0);
  check tint "local p1" 1 (Trace.local_length z p1);
  check tint "sends by p0" 1 (Trace.send_count z p0);
  check tint "sends by p1" 0 (Trace.send_count z p1);
  check tbool "last is internal" true
    (match Trace.last z with Some e -> Event.is_internal e | None -> false)

let test_trace_snoc_of_list_agree () =
  let es = Trace.to_list (simple_trace ()) in
  let built = List.fold_left Trace.snoc Trace.empty es in
  check tbool "snoc = of_list" true (Trace.equal built (Trace.of_list es))

let test_trace_projection () =
  let z = simple_trace () in
  check tint "proj p0 len" 2 (List.length (Trace.proj z p0));
  check tint "proj p1 len" 1 (List.length (Trace.proj z p1));
  check tbool "proj order" true
    (match Trace.proj z p0 with
    | [ a; b ] -> Event.is_send a && Event.is_internal b
    | _ -> false);
  check tint "proj_set D" 3 (List.length (Trace.proj_set z (Pset.all 2)));
  check tint "proj_set empty" 0 (List.length (Trace.proj_set z Pset.empty))

let test_trace_prefix_suffix () =
  let z = simple_trace () in
  let x = Trace.of_list [ List.hd (Trace.to_list z) ] in
  check tbool "x <= z" true (Trace.is_prefix x z);
  check tbool "z not <= x" false (Trace.is_prefix z x);
  check tbool "empty <= z" true (Trace.is_prefix Trace.empty z);
  check tbool "z <= z" true (Trace.is_prefix z z);
  check tint "suffix len" 2 (List.length (Trace.suffix ~prefix:x z));
  check tint "(z,z) empty" 0 (List.length (Trace.suffix ~prefix:z z));
  check tbool "append restores" true
    (Trace.equal z (Trace.append x (Trace.suffix ~prefix:x z)))

let test_trace_prefix_not_just_length () =
  let a = Trace.of_list [ Event.internal ~pid:p0 ~lseq:0 "a" ] in
  let b = Trace.of_list [ Event.internal ~pid:p1 ~lseq:0 "b" ] in
  check tbool "different singleton not prefix" false (Trace.is_prefix a b)

let test_trace_messages () =
  let z = simple_trace () in
  check tint "sent" 1 (List.length (Trace.sent z));
  check tint "received" 1 (List.length (Trace.received z));
  check tint "in flight" 0 (List.length (Trace.in_flight z));
  let partial = Trace.of_list [ mk_send ~src:p0 ~dst:p1 ~lseq:0 ~seq:0 "m" ] in
  check tint "in flight 1" 1 (List.length (Trace.in_flight partial))

let test_trace_well_formed () =
  check tbool "valid trace" true (Trace.well_formed (simple_trace ()));
  check tbool "empty wf" true (Trace.well_formed Trace.empty);
  (* receive before send *)
  let bad1 = Trace.of_list [ mk_recv ~src:p0 ~dst:p1 ~lseq:0 ~seq:0 "m" ] in
  check tbool "recv before send" false (Trace.well_formed bad1);
  (* lseq gap *)
  let bad2 = Trace.of_list [ Event.internal ~pid:p0 ~lseq:1 "t" ] in
  check tbool "lseq gap" false (Trace.well_formed bad2);
  (* duplicate send of same key *)
  let bad3 =
    Trace.of_list
      [
        mk_send ~src:p0 ~dst:p1 ~lseq:0 ~seq:0 "m";
        mk_send ~src:p0 ~dst:p1 ~lseq:1 ~seq:0 "m";
      ]
  in
  check tbool "dup send key" false (Trace.well_formed bad3);
  (* double receive *)
  let bad4 =
    Trace.of_list
      [
        mk_send ~src:p0 ~dst:p1 ~lseq:0 ~seq:0 "m";
        mk_recv ~src:p0 ~dst:p1 ~lseq:0 ~seq:0 "m";
        Event.receive ~pid:p1 ~lseq:1 (Fixtures.msg ~src:p0 ~dst:p1 ~seq:0 ~payload:"m");
      ]
  in
  check tbool "double receive" false (Trace.well_formed bad4);
  (* seq inconsistent with send count *)
  let bad5 = Trace.of_list [ mk_send ~src:p0 ~dst:p1 ~lseq:0 ~seq:3 "m" ] in
  check tbool "seq gap" false (Trace.well_formed bad5)

let test_trace_prefix_closed_wf () =
  (* every prefix of a well-formed trace is well-formed (the model's
     prefix-closure property, §2) *)
  let z = simple_trace () in
  let rec prefixes acc t =
    let acc = t :: acc in
    match Trace.to_list t with
    | [] -> acc
    | es -> prefixes acc (Trace.of_list (List.filteri (fun i _ -> i < List.length es - 1) es))
  in
  List.iter
    (fun x -> check tbool "prefix wf" true (Trace.well_formed x))
    (prefixes [] z)

let test_trace_permutation () =
  let a = Event.internal ~pid:p0 ~lseq:0 "a" in
  let b = Event.internal ~pid:p1 ~lseq:0 "b" in
  let x = Trace.of_list [ a; b ] and y = Trace.of_list [ b; a ] in
  check tbool "permutation" true (Trace.permutation_of x y);
  check tbool "not permutation of prefix" false
    (Trace.permutation_of x (Trace.of_list [ a ]));
  let a1 = Event.internal ~pid:p0 ~lseq:1 "c" in
  check tbool "identical traces are permutations" true
    (Trace.permutation_of (Trace.of_list [ a; a1 ]) (Trace.of_list [ a; a1 ]))

let test_trace_remove () =
  let z = simple_trace () in
  let e = Event.internal ~pid:p0 ~lseq:1 "t" in
  let z' = Trace.remove z e in
  check tint "removed" 2 (Trace.length z');
  check tbool "still wf" true (Trace.well_formed z');
  Alcotest.check_raises "remove missing"
    (Invalid_argument "Trace.remove: event not in trace") (fun () ->
      ignore (Trace.remove z' e))

(* -- spec ------------------------------------------------------------- *)

let test_spec_enabled_initial () =
  let s = Fixtures.one_msg in
  let e0 = Spec.enabled s Trace.empty in
  (* only p0's send is enabled: nothing is in flight for p1 *)
  check tint "one enabled" 1 (List.length e0);
  check tbool "it's the send" true (Event.is_send (List.hd e0))

let test_spec_enabled_receive_needs_flight () =
  let s = Fixtures.one_msg in
  let z = Trace.of_list [ mk_send ~src:p0 ~dst:p1 ~lseq:0 ~seq:0 "m" ] in
  let es = Spec.enabled s z in
  check tint "recv enabled" 1 (List.length es);
  check tbool "is receive" true (Event.is_receive (List.hd es));
  let z' = Trace.snoc z (List.hd es) in
  check tint "quiescent" 0 (List.length (Spec.enabled s z'))

let test_spec_valid () =
  let s = Fixtures.one_msg in
  let z =
    Trace.of_list
      [
        mk_send ~src:p0 ~dst:p1 ~lseq:0 ~seq:0 "m";
        mk_recv ~src:p0 ~dst:p1 ~lseq:0 ~seq:0 "m";
      ]
  in
  check tbool "valid" true (Spec.valid s z);
  (* a send p0 never makes *)
  let rogue = Trace.of_list [ mk_send ~src:p0 ~dst:p1 ~lseq:0 ~seq:0 "other" ] in
  check tbool "invalid payload" false (Spec.valid s rogue);
  check tbool "error mentions event" true
    (match Spec.validity_error s rogue with
    | Some msg -> String.length msg > 0
    | None -> false)

let test_spec_extensions () =
  let s = Fixtures.indep in
  let exts = Spec.extensions s Trace.empty in
  check tint "two extensions" 2 (List.length exts);
  List.iter (fun z -> check tbool "ext valid" true (Spec.valid s z)) exts

(* -- cached trace hash ------------------------------------------------

   [Trace.hash] is cached incrementally by snoc/of_list and must agree
   with equality however a trace was built. *)

let gen_event =
  QCheck.Gen.(
    int_range 0 2 >>= fun pid ->
    int_range 0 3 >>= fun lseq ->
    let p = Pid.of_int pid in
    oneof
      [
        ( oneofl [ "a"; "b"; "c" ] >|= fun tag ->
          Event.internal ~pid:p ~lseq tag );
        ( int_range 0 2 >>= fun dst ->
          int_range 0 3 >>= fun seq ->
          oneofl [ "m"; "n" ] >|= fun payload ->
          Event.send ~pid:p ~lseq
            (Msg.make ~src:p ~dst:(Pid.of_int dst) ~seq ~payload) );
        ( int_range 0 2 >>= fun src ->
          int_range 0 3 >>= fun seq ->
          oneofl [ "m"; "n" ] >|= fun payload ->
          Event.receive ~pid:p ~lseq
            (Msg.make ~src:(Pid.of_int src) ~dst:p ~seq ~payload) );
      ])

(* an event list together with a seeded Fisher-Yates permutation of it *)
let gen_events_and_permutation =
  QCheck.make
    ~print:(fun (es, perm) ->
      Printf.sprintf "%s / %s"
        (Trace.to_string (Trace.of_list es))
        (Trace.to_string (Trace.of_list perm)))
    QCheck.Gen.(
      list_size (int_range 0 12) gen_event >>= fun es ->
      int >|= fun seed ->
      let a = Array.of_list es in
      let st = Random.State.make [| seed |] in
      for i = Array.length a - 1 downto 1 do
        let j = Random.State.int st (i + 1) in
        let t = a.(i) in
        a.(i) <- a.(j);
        a.(j) <- t
      done;
      (es, Array.to_list a))

let trace_hash_props =
  [
    QCheck.Test.make ~name:"hash agrees with equality on permuted traces"
      ~count:500 gen_events_and_permutation (fun (es, perm) ->
        let a = Trace.of_list es and b = Trace.of_list perm in
        (* the fast-path hash must neither break equality (equal lists
           stay equal) nor violate [equal ⇒ same hash] *)
        Trace.equal a b = List.equal Event.equal es perm
        && ((not (Trace.equal a b)) || Trace.hash a = Trace.hash b));
    QCheck.Test.make ~name:"hash independent of construction path" ~count:500
      gen_events_and_permutation (fun (es, _) ->
        let via_of_list = Trace.of_list es in
        let via_snoc = List.fold_left Trace.snoc Trace.empty es in
        let k = List.length es / 2 in
        let prefix = List.filteri (fun i _ -> i < k) es in
        let suffix = List.filteri (fun i _ -> i >= k) es in
        let via_append = Trace.append (Trace.of_list prefix) suffix in
        Trace.equal via_of_list via_snoc
        && Trace.equal via_of_list via_append
        && Trace.hash via_of_list = Trace.hash via_snoc
        && Trace.hash via_of_list = Trace.hash via_append);
    QCheck.Test.make ~name:"rebuilt trace has equal hash" ~count:500
      gen_events_and_permutation (fun (es, _) ->
        let z = Trace.of_list es in
        let z' = Trace.of_list (Trace.to_list z) in
        Trace.equal z z' && Trace.hash z = Trace.hash z');
  ]

let suite =
  [
    ("pid basics", `Quick, test_pid_basics);
    ("pid names", `Quick, test_pid_names);
    ("pset algebra", `Quick, test_pset_algebra);
    ("pset compl involution", `Quick, test_pset_compl_involution);
    ("msg identity", `Quick, test_msg_identity);
    ("event constructors", `Quick, test_event_constructors);
    ("event on", `Quick, test_event_on);
    ("event order total", `Quick, test_event_order_total);
    ("trace basics", `Quick, test_trace_basics);
    ("trace snoc/of_list", `Quick, test_trace_snoc_of_list_agree);
    ("trace projection", `Quick, test_trace_projection);
    ("trace prefix/suffix", `Quick, test_trace_prefix_suffix);
    ("trace prefix content", `Quick, test_trace_prefix_not_just_length);
    ("trace messages", `Quick, test_trace_messages);
    ("trace well-formed", `Quick, test_trace_well_formed);
    ("trace prefix-closure", `Quick, test_trace_prefix_closed_wf);
    ("trace permutation", `Quick, test_trace_permutation);
    ("trace remove", `Quick, test_trace_remove);
    ("spec enabled initial", `Quick, test_spec_enabled_initial);
    ("spec receive in-flight", `Quick, test_spec_enabled_receive_needs_flight);
    ("spec validity", `Quick, test_spec_valid);
    ("spec extensions", `Quick, test_spec_extensions);
  ]
  @ List.map
      (fun p -> QCheck_alcotest.to_alcotest ~verbose:false p)
      trace_hash_props
