(* Tfrc.Rtt: EWMA behaviour. *)

let test_seed_used_before_samples () =
  let r = Tfrc.Rtt.create ~initial:0.5 () in
  Alcotest.(check (float 1e-9)) "seed" 0.5 (Tfrc.Rtt.smoothed r);
  Alcotest.(check bool) "no sample yet" false (Tfrc.Rtt.has_sample r)

let test_first_sample_replaces_seed () =
  let r = Tfrc.Rtt.create ~initial:0.5 () in
  Tfrc.Rtt.sample r 0.1;
  Alcotest.(check (float 1e-9)) "first sample wins" 0.1 (Tfrc.Rtt.smoothed r);
  Alcotest.(check bool) "has sample" true (Tfrc.Rtt.has_sample r)

let test_ewma () =
  let r = Tfrc.Rtt.create ~q:0.9 ~initial:0.5 () in
  Tfrc.Rtt.sample r 0.1;
  Tfrc.Rtt.sample r 0.2;
  (* 0.9*0.1 + 0.1*0.2 = 0.11 *)
  Alcotest.(check (float 1e-9)) "ewma step" 0.11 (Tfrc.Rtt.smoothed r)

let test_converges () =
  let r = Tfrc.Rtt.create ~initial:1.0 () in
  for _ = 1 to 200 do
    Tfrc.Rtt.sample r 0.05
  done;
  Alcotest.(check bool) "converges to steady input" true
    (Float.abs (Tfrc.Rtt.smoothed r -. 0.05) < 0.001)

let test_t_rto () =
  let r = Tfrc.Rtt.create ~initial:0.5 () in
  Tfrc.Rtt.sample r 0.1;
  Alcotest.(check (float 1e-9)) "4R" 0.4 (Tfrc.Rtt.t_rto r)

let test_sample_count () =
  let r = Tfrc.Rtt.create ~initial:0.5 () in
  Tfrc.Rtt.sample r 0.1;
  Tfrc.Rtt.sample r 0.1;
  Alcotest.(check int) "counted" 2 (Tfrc.Rtt.samples r)

let test_create_rejects () =
  List.iter
    (fun v ->
      Alcotest.check_raises
        (Printf.sprintf "initial %g" v)
        (Invalid_argument "Tfrc.Rtt.create: initial must be > 0")
        (fun () -> ignore (Tfrc.Rtt.create ~initial:v ())))
    [ 0.0; -0.5; Float.nan ];
  List.iter
    (fun q ->
      Alcotest.check_raises
        (Printf.sprintf "q %g" q)
        (Invalid_argument "Tfrc.Rtt.create: q must be in [0, 1)")
        (fun () -> ignore (Tfrc.Rtt.create ~q ~initial:0.5 ())))
    [ -0.1; 1.0; Float.nan ]

let test_sample_reseed_reject () =
  let r = Tfrc.Rtt.create ~initial:0.5 () in
  List.iter
    (fun v ->
      Alcotest.check_raises
        (Printf.sprintf "sample %g" v)
        (Invalid_argument "Tfrc.Rtt.sample: r must be > 0")
        (fun () -> Tfrc.Rtt.sample r v);
      Alcotest.check_raises
        (Printf.sprintf "reseed %g" v)
        (Invalid_argument "Tfrc.Rtt.reseed: r must be > 0")
        (fun () -> Tfrc.Rtt.reseed r v))
    [ 0.0; -0.5; Float.nan ];
  (* a rejected call leaves the estimator untouched *)
  Alcotest.(check (float 0.0)) "seed kept" 0.5 (Tfrc.Rtt.smoothed r);
  Alcotest.(check int) "no sample" 0 (Tfrc.Rtt.samples r)

(* [sample_echo] is [sample] of [now - tstamp_echo - t_delay], skipped
   when that is not positive, and it records the sample it computed. *)
let test_sample_echo () =
  let a = Tfrc.Rtt.create ~initial:0.5 () and b = Tfrc.Rtt.create ~initial:0.5 () in
  List.iter
    (fun (now, echo, delay) ->
      Tfrc.Rtt.sample_echo a ~now ~tstamp_echo:echo ~t_delay:delay;
      let r = now -. echo -. delay in
      Alcotest.(check (float 0.0)) "last" r a.Tfrc.Rtt.last;
      if r > 0.0 then Tfrc.Rtt.sample b r;
      Alcotest.(check (float 0.0)) "estimate" (Tfrc.Rtt.smoothed b)
        (Tfrc.Rtt.smoothed a);
      Alcotest.(check int) "samples" (Tfrc.Rtt.samples b) (Tfrc.Rtt.samples a))
    [ (1.0, 0.9, 0.01); (2.0, 1.95, 0.1); (3.0, 2.87, 0.003); (4.0, 4.0, 0.0) ]

let suite =
  [
    Alcotest.test_case "seed" `Quick test_seed_used_before_samples;
    Alcotest.test_case "first sample" `Quick test_first_sample_replaces_seed;
    Alcotest.test_case "ewma" `Quick test_ewma;
    Alcotest.test_case "convergence" `Quick test_converges;
    Alcotest.test_case "t_rto" `Quick test_t_rto;
    Alcotest.test_case "sample count" `Quick test_sample_count;
    Alcotest.test_case "create rejects" `Quick test_create_rejects;
    Alcotest.test_case "sample and reseed reject" `Quick
      test_sample_reseed_reject;
    Alcotest.test_case "sample from echo" `Quick test_sample_echo;
  ]
