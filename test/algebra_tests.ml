(* Total-order broadcast. *)
open Hpl_protocols

let check = Alcotest.check
let tbool = Alcotest.bool
let tint = Alcotest.int

let test_total_order_identical () =
  List.iter
    (fun seed ->
      let config =
        { Hpl_sim.Engine.default with fifo = false; max_delay = 40.0; seed; n = 4 }
      in
      let o = Total_order.run ~config Total_order.default in
      check tbool "identical" true o.Total_order.identical_order;
      check tbool "all delivered" true o.Total_order.all_delivered)
    [ 1L; 2L; 3L; 4L ]

let test_total_order_gaps_buffered () =
  let config =
    { Hpl_sim.Engine.default with fifo = false; max_delay = 60.0; seed = 5L; n = 4 }
  in
  let o = Total_order.run ~config Total_order.default in
  check tbool "buffering happened" true (o.Total_order.gaps_buffered > 0)

let test_total_order_message_cost () =
  (* per non-sequencer broadcast: 1 submit + n orders; sequencer's own:
     n orders. total = b*(n-1)*(1+n) + b*n *)
  let p = { Total_order.default with n = 4; broadcasts_per_process = 3 } in
  let o = Total_order.run p in
  let b = 3 and n = 4 in
  check tint "message count" ((b * (n - 1) * (1 + n)) + (b * n)) o.Total_order.messages

let test_total_order_respects_origin_fifo () =
  (* each origin's messages are delivered in origin-sequence order *)
  let o = Total_order.run Total_order.default in
  Array.iter
    (fun log ->
      let per_origin = Hashtbl.create 4 in
      List.iter
        (fun (origin, oseq) ->
          let prev = Option.value ~default:(-1) (Hashtbl.find_opt per_origin origin) in
          check tbool "origin order" true (oseq > prev);
          Hashtbl.replace per_origin origin oseq)
        log)
    o.Total_order.deliveries

let suite =
  [
    ("total order identical", `Quick, test_total_order_identical);
    ("total order buffers gaps", `Quick, test_total_order_gaps_buffered);
    ("total order message cost", `Quick, test_total_order_message_cost);
    ("total order origin fifo", `Quick, test_total_order_respects_origin_fifo);
  ]
