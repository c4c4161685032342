(* Causal and FIFO delivery checks. *)
open Hpl_core
open Hpl_clocks

let check = Alcotest.check
let tbool = Alcotest.bool
let tint = Alcotest.int

let p0 = Fixtures.p0
let p1 = Fixtures.p1
let p2 = Fixtures.p2

(* the relay computation used in causality tests *)
let m01 = Msg.make ~src:p0 ~dst:p1 ~seq:0 ~payload:"m"
let m12 = Msg.make ~src:p1 ~dst:p2 ~seq:0 ~payload:"m"

let relay =
  Trace.of_list
    [
      Event.send ~pid:p0 ~lseq:0 m01;
      Event.receive ~pid:p1 ~lseq:0 m01;
      Event.send ~pid:p1 ~lseq:1 m12;
      Event.receive ~pid:p2 ~lseq:0 m12;
      Event.internal ~pid:p2 ~lseq:1 "t";
    ]

(* -- causal delivery --------------------------------------------------- *)

let test_causal_delivery_holds () =
  check tbool "relay causal" true (Causal_order.delivers_causally ~n:3 relay);
  check tbool "relay fifo" true (Causal_order.fifo_per_channel relay)

let causal_violation_trace () =
  (* p0 sends m1 to p2, then m2 to p1; p1 relays to p2; p2 receives the
     relayed (causally later) message before m1. *)
  let m1 = Msg.make ~src:p0 ~dst:p2 ~seq:0 ~payload:"m1" in
  let m2 = Msg.make ~src:p0 ~dst:p1 ~seq:1 ~payload:"m2" in
  let m3 = Msg.make ~src:p1 ~dst:p2 ~seq:0 ~payload:"m3" in
  Trace.of_list
    [
      Event.send ~pid:p0 ~lseq:0 m1;
      Event.send ~pid:p0 ~lseq:1 m2;
      Event.receive ~pid:p1 ~lseq:0 m2;
      Event.send ~pid:p1 ~lseq:1 m3;
      Event.receive ~pid:p2 ~lseq:0 m3;
      Event.receive ~pid:p2 ~lseq:1 m1;
    ]

let test_causal_delivery_violation () =
  let z = causal_violation_trace () in
  check tbool "well-formed" true (Trace.well_formed z);
  check tbool "violates causal order" false (Causal_order.delivers_causally ~n:3 z);
  check tint "one violation" 1 (List.length (Causal_order.violations ~n:3 z))

let test_fifo_violation () =
  let m1 = Msg.make ~src:p0 ~dst:p1 ~seq:0 ~payload:"m1" in
  let m2 = Msg.make ~src:p0 ~dst:p1 ~seq:1 ~payload:"m2" in
  let z =
    Trace.of_list
      [
        Event.send ~pid:p0 ~lseq:0 m1;
        Event.send ~pid:p0 ~lseq:1 m2;
        Event.receive ~pid:p1 ~lseq:0 m2;
        Event.receive ~pid:p1 ~lseq:1 m1;
      ]
  in
  check tbool "fifo violated" false (Causal_order.fifo_per_channel z);
  check tbool "also causal violated" false (Causal_order.delivers_causally ~n:2 z)

let suite =
  [
    ("causal delivery holds", `Quick, test_causal_delivery_holds);
    ("causal delivery violation", `Quick, test_causal_delivery_violation);
    ("fifo violation", `Quick, test_fifo_violation);
  ]
