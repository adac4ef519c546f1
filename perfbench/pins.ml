(* The simulated fingerprint of each workload's pinned instance, taken
   from the build the benchmark was defined on ("bench.exe pin" prints
   them). A repetition whose outputs differ in any entry counts as a
   failed operation: a speed-up must not change what is simulated. *)

let expected = function
  | "fig1_sweep" ->
    [
      ("failed_routers", "156");
      ("verdict1", "true");
      ("verdict2", "true");
      ("verdict3", "true");
      ("mean[MRAI=0.5,1%]", "5.6284982414204876");
      ("mean[MRAI=0.5,5%]", "7.5987877107529673");
      ("mean[MRAI=0.5,10%]", "17.57504162039783");
      ("mean[MRAI=0.5,20%]", "35.696716217786204");
      ("mean[MRAI=1.25,1%]", "13.209092748262096");
      ("mean[MRAI=1.25,5%]", "13.537992310296257");
      ("mean[MRAI=1.25,10%]", "11.307205279485135");
      ("mean[MRAI=1.25,20%]", "13.625299599881338");
      ("mean[MRAI=2.25,1%]", "20.027971850894453");
      ("mean[MRAI=2.25,5%]", "24.517927644959443");
      ("mean[MRAI=2.25,10%]", "25.635777661955018");
      ("mean[MRAI=2.25,20%]", "16.553695171824657");
    ]
  | "heavy_trial" ->
    [
      ("messages", "452963");
      ("events", "1061021");
      ("delay", "168.29891074364247");
      ("converged", "true");
    ]
  | "churn_flap" ->
    [
      ("messages", "277483");
      ("events", "538539");
      ("delay", "66.290763438830993");
      ("converged", "true");
      ("updates_processed", "238955");
      ("unconverged", "0");
      ("settle_p99", "53.279789458656403");
    ]
  | "traced_campaign" ->
    [
      ("failed_routers", "72");
      ("trials", "24");
      ("dests", "493");
      ("mean_delay", "2.8610787139173723");
      ("total_queueing", "23.274618712427916");
      ("total_processing", "8.4707511537068871");
      ("total_mrai_hold", "23.620519267881946");
      ("total_propagation", "13.300000000000185");
      ("tail_p99", "3.8542288686231063");
    ]
  | _ -> []
