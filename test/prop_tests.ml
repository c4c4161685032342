open Hpl_core

let check = Alcotest.check
let tbool = Alcotest.bool

let u = Universe.enumerate ~mode:`Full Fixtures.ping_pong ~depth:3

let sent_ping =
  Prop.make "ping sent" (fun z -> Trace.send_count z Fixtures.p0 > 0)

let test_constants () =
  check tbool "tt" true (Prop.eval Prop.tt Trace.empty);
  check tbool "ff" false (Prop.eval Prop.ff Trace.empty);
  check tbool "const true = tt" true (Prop.eval (Prop.const true) Trace.empty);
  check tbool "tt constant" true (Prop.is_constant u Prop.tt);
  check tbool "ff constant" true (Prop.is_constant u Prop.ff);
  check tbool "sent_ping not constant" false (Prop.is_constant u sent_ping)

let test_combinators () =
  let z = Universe.comp u (Universe.size u - 1) in
  let b = sent_ping in
  check tbool "not" true (Prop.eval (Prop.not_ b) Trace.empty);
  check tbool "and" true
    (Prop.eval (Prop.and_ b Prop.tt) z = Prop.eval b z);
  check tbool "or with ff" true
    (Prop.eval (Prop.or_ b Prop.ff) z = Prop.eval b z);
  check tbool "implies self" true (Prop.eval (Prop.implies b b) z);
  check tbool "iff self" true (Prop.eval (Prop.iff b b) z);
  check tbool "conj empty" true (Prop.eval (Prop.conj []) z);
  check tbool "disj empty" false (Prop.eval (Prop.disj []) z)

let test_names () =
  check tbool "negation names" true
    (String.length (Prop.name (Prop.not_ sent_ping)) > String.length (Prop.name sent_ping))

let test_extent () =
  let ext = Prop.extent u sent_ping in
  check Alcotest.int "domain" (Universe.size u) (Bitset.length ext);
  Universe.iter
    (fun i z ->
      check tbool "pointwise" (Prop.eval sent_ping z) (Bitset.mem ext i))
    u

let test_local_event_count () =
  let b = Prop.local_event_count Fixtures.p1 (fun k -> k >= 1) "p1 moved" in
  check tbool "empty" false (Prop.eval b Trace.empty);
  let z =
    Trace.of_list [ Event.internal ~pid:Fixtures.p1 ~lseq:0 "t" ]
  in
  check tbool "after event" true (Prop.eval b z)

let test_respects_interleaving () =
  check tbool "projection-based respects" true
    (Prop.respects_interleaving u sent_ping);
  (* a predicate reading the linear order of independent events is not
     interleaving-invariant; use a system with real interleavings *)
  let u2 = Universe.enumerate ~mode:`Full Fixtures.indep ~depth:4 in
  let order_sensitive =
    Prop.make "p0 moved first" (fun z ->
        match Trace.to_list z with
        | e :: _ -> Pid.equal e.Event.pid Fixtures.p0
        | [] -> false)
  in
  check tbool "order-sensitive caught" false
    (Prop.respects_interleaving u2 order_sensitive)

let suite =
  [
    ("constants", `Quick, test_constants);
    ("combinators", `Quick, test_combinators);
    ("names", `Quick, test_names);
    ("extent pointwise", `Quick, test_extent);
    ("local_event_count", `Quick, test_local_event_count);
    ("respects_interleaving", `Quick, test_respects_interleaving);
  ]
