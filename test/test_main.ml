(* Test entry point: one alcotest section per subsystem. Run with
   [dune runtest]. *)
let () =
  Alcotest.run "pathcaching"
    [
      ("util", Test_util.suite);
      ("pagestore", Test_pagestore.suite);
      ("bufferpool", Test_bufferpool.suite);
      ("btree", Test_btree.suite);
      ("extpst", Test_extpst.suite);
      ("dynamic", Test_dynamic.suite);
      ("extseg", Test_extseg.suite);
      ("extint", Test_extint.suite);
      ("threesided", Test_3sided.suite);
      ("apps", Test_apps.suite);
      ("extensions", Test_extensions.suite);
      ("robustness", Test_robustness.suite);
      ("durability", Test_durability.suite);
      ("obs", Test_obs.suite);
      ("mrc", Test_mrc.suite);
      ("costmodel", Test_costmodel.suite);
      ("check", Test_check.suite);
      ("blockdev", Test_blockdev.suite);
      ("conc", Test_conc.suite);
      ("faults", Test_faults.suite);
    ]
