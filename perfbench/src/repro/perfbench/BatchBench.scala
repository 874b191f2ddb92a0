package repro.perfbench

import scala.collection.mutable
import org.apache.spark.sql.{DataFrame, Row, SparkSession}
import org.apache.spark.sql.functions.{col, explode}
import org.apache.spark.storage.StorageLevel
import repro.SynthData
import repro.core.{CostModel, FactorWindows, Semantics, Window, WcgPlan}
import repro.eval.EvalHarness
import repro.gen.WindowGen
import repro.exec.{AggSpec, Executor, WindowAssign}

/** A batch workload: one multi-window aggregate over a synthetic event set. */
final case class BatchWorkload(windows: Vector[Window], agg: AggSpec, rows: Long,
                               horizon: Long, keys: Long)

/** Batch query loop: BL, WCG and WCG-FW in rotating order over one input
  * that is generated and persisted once, during set-up.
  *
  * The input is never persisted again between queries, so whatever the
  * system under test does to the cache (today `Executor.unpersistAll` drops
  * it) shows in the timings and in `input.cache_hit_ratio`.
  */
object BatchBench {

  val Workloads: Map[String, BatchWorkload] = Map(
    // The only workload where an event falls into several instances
    // (fan-out > 1) and where Algorithm 2 inserts factor windows.
    "hopping-min" -> BatchWorkload(
      Vector(Window(40, 10), Window(80, 20), Window(120, 40)), AggSpec.Min,
      rows = 1000000L, horizon = 2400, keys = 4),
    // Per-node and per-task overhead dominate; partitioned-by optimizer path
    // on the largest window set, algebraic AVG state, largest result.
    "random12-avg" -> BatchWorkload(
      EvalHarness.generate("random-tumbling", EvalHarness.BaseSeed + 1000, 12), AggSpec.Avg,
      rows = 100000L, horizon = 2400, keys = 16),
  )

  /** Input set-ups per run; `setup_s` reports their median. */
  val Setups = 3

  /** The first warm-up round runs on an input this many times smaller. */
  val WarmDivisor = 4

  /** Result rows keyed by `(w_r, w_s, k, wstart)`. */
  def keyed(rows: Array[Row]): Map[Seq[Long], Double] =
    rows.map(r => Seq(r.getLong(0), r.getLong(1), r.getLong(2), r.getLong(3)) -> r.getDouble(4)).toMap

  /** Window-instance assignment of `nEvents` events to every window: the
    * rows `explode(WindowAssign.instanceStartsForEvent(..))` yields, summed
    * over windows, the time those counts took in ms, and the fan-out
    * `rows / (nEvents × windows)` (1.0 when every event is in one instance
    * per window, as for tumbling windows).
    */
  def assign(events: DataFrame, nEvents: Long, windows: Seq[Window]): (Long, Double, Double) = {
    val t0 = System.nanoTime()
    val rows = windows.map { w =>
      events.select(explode(WindowAssign.instanceStartsForEvent(col("t"), w))).count()
    }.sum
    (rows, Bench.ms(t0), rows.toDouble / (nEvents * windows.size))
  }

  def run(w: BatchWorkload)(spark: SparkSession, a: Bench.Args, res: Bench.Result,
                            tracer: Tracer): Unit = {
    val sc = spark.sparkContext
    val sem = w.agg.semantics
    val eta = BigInt(math.max(1L, w.rows / w.horizon))
    def alg1(): WcgPlan = CostModel.minCostPlan(w.windows, sem, eta)
    def alg2(): WcgPlan = FactorWindows.minCostPlanWithFactors(w.windows, sem, eta)

    var events: DataFrame = null
    (1 to Setups).foreach { _ =>
      if (events != null) events.unpersist(blocking = true)
      val t0 = System.nanoTime()
      events = SynthData.events(spark, w.rows, w.horizon, w.keys, a.seed).persist()
      events.count()
      res.inputGenS += Bench.ms(t0) / 1e3
    }
    res.setupS ++= res.inputGenS
    res.eventsPerSample = w.rows

    val engine = new EngineMetrics
    if (a.trace) sc.addSparkListener(engine)
    val cachedBytes = mutable.Map.empty[String, mutable.ArrayBuffer[Double]]
    def storedBytes(): Long = sc.getRDDStorageInfo.map(i => i.memSize + i.diskSize).sum

    /** One query as the system answers it, planning through `collect()`. */
    def query(plan: String, input: DataFrame): Array[Row] = plan match {
      case "bl" => Executor.baseline(input, w.windows, w.agg).collect()
      case _ =>
        val before = if (a.trace) storedBytes() else 0L
        val p = if (plan == "wcg") alg1() else alg2()
        val rows = Executor.rewritten(input, p, w.agg, persistShared = true).collect()
        if (a.trace)
          cachedBytes.getOrElseUpdate(plan, mutable.ArrayBuffer.empty) += (storedBytes() - before).toDouble
        Executor.unpersistAll(input)
        rows
    }

    /** One round: every plan once, in rotated order, each on its own clock.
      * Results are compared with `reference` (the input's first BL result)
      * after all clocks of the round have stopped.
      */
    def round(i: Int, input: DataFrame, timed: Boolean,
              reference: Option[Map[Seq[Long], Double]]): Map[Seq[Long], Double] = {
      val results = Bench.rotate(Bench.Plans, i).map { plan =>
        val hit = events.storageLevel != StorageLevel.NONE
        sc.setJobGroup(s"$plan:${if (timed) "timed" else "warm"}:$i", plan)
        val t0 = System.nanoTime()
        val rows = try Right(query(plan, input)) catch { case e: Exception => Left(e) }
        val took = Bench.ms(t0)
        sc.clearJobGroup()
        if (timed) {
          if (rows.isRight) res.sample(plan, took)
          res.cacheChecks += 1
          if (hit) res.cacheHits += 1
        }
        plan -> rows
      }.toMap
      val want = reference.getOrElse(keyed(results("bl").fold(throw _, identity)))
      Bench.Plans.foreach { plan =>
        res.attempt(results(plan).fold(e => Some(s"$plan threw $e"),
          r => Bench.diff(keyed(r), want).map(d => s"$plan: $d")))
      }
      want
    }

    // Warm-up, not counted: a round on a smaller input of the same shape,
    // which compiles the same code at a fraction of the cost, then one round
    // on the input itself (the first query at full size is still slow),
    // whose BL result is the reference. The first rewritten query's
    // `unpersistAll` drops the set-up's input, as a timed one would.
    val small = SynthData.events(spark, w.rows / WarmDivisor, w.horizon, w.keys, a.seed + 1)
    round(0, small, timed = false, None)
    val reference = round(1, events, timed = false, None)

    val start = System.nanoTime()
    var i = 0
    while (Bench.moreRounds(a, start, i)) {
      round(i, events, timed = true, Some(reference))
      res.heapMb += Bench.liveHeapMb()
      i += 1
    }

    if (a.trace) {
      engine.drain(sc)
      Bench.Plans.foreach { p =>
        val n = res.samplesMs.get(p).fold(0)(_.size).max(1)
        val (stages, tasks, bytes, records) = engine.totals(_.startsWith(s"$p:timed:"))
        res.layer(s"exec.stages_$p") = stages.toDouble / n
        res.layer(s"exec.tasks_$p") = tasks.toDouble / n
        res.layer(s"exec.shuffle_bytes_$p") = bytes.toDouble / n
        res.layer(s"exec.shuffle_records_$p") = records.toDouble / n
      }
      Seq("wcg", "wcgfw").foreach(p =>
        res.layer(s"exec.cached_bytes_$p") = Bench.median(cachedBytes.getOrElse(p, Nil).toSeq))

      Bench.Plans.foreach { p =>
        val (rows, took) = tracedQuery(w, p, events, alg1 _, alg2 _, tracer)
        res.traced(p, took)
        res.attempt(Bench.diff(keyed(rows), reference).map(d => s"traced $p: $d"))
      }
      Planning.probe(w.windows, w.agg.semantics, eta, a.seed, res)
      assignProbe(w, res, events)
    }
  }

  /** One query with a span around every layer call. Each plan node is
    * persisted and counted inside its own span, before its children run, so
    * the span holds only that node's work.
    */
  def tracedQuery(w: BatchWorkload, plan: String, events: DataFrame,
                          alg1: () => WcgPlan, alg2: () => WcgPlan,
                          tracer: Tracer): (Array[Row], Double) = {
    val trace = tracer.newTrace()
    val t0 = System.nanoTime()
    val (rows, _) = tracer.span(trace, "query", 0, "plan" -> plan) { qs =>
      val q = qs.id
      val (nodes, user) = plan match {
        case "bl" => (w.windows.map(_ -> Option.empty[Window]), w.windows)
        case _ =>
          val (p, _) = tracer.span(trace, "core.plan", q, "plan" -> plan)(_ =>
            if (plan == "wcg") alg1() else alg2())
          (p.topological.map(x => x -> p.parent(x)), p.userWindows)
      }
      val done = mutable.Map.empty[Window, (DataFrame, Int, Long)]
      nodes.foreach { case (x, up) =>
        val parentSpan = up.fold(q)(u => done(u)._2)
        val (df, id) = tracer.span(trace, "exec.node", parentSpan, "plan" -> plan,
            "window" -> x.toString, "kind" -> (if (up.isEmpty) "root" else "edge")) { s =>
          val d = up.fold(Executor.subAggFromEvents(events, x, w.agg)) { u =>
            Executor.subAggFromUpstream(done(u)._1, u, x, w.agg)
          }.persist(StorageLevel.MEMORY_AND_DISK)
          val n = d.count()
          s.attrs("rows_in") = up.fold(w.rows)(u => done(u)._3)
          s.attrs("rows_out") = n
          (d, n)
        }
        done(x) = (df._1, id, df._2)
      }
      val (out, _) = tracer.span(trace, "exec.finish", q, "plan" -> plan) { s =>
        val o = user.map(x => Executor.finish(done(x)._1, x, w.agg)).reduce(_.unionAll(_))
          .persist(StorageLevel.MEMORY_AND_DISK)
        s.attrs("rows_out") = o.count()
        o
      }
      val (rows, _) = tracer.span(trace, "exec.collect", q, "plan" -> plan)(_ => out.collect())
      out.unpersist(blocking = true)
      done.values.foreach(_._1.unpersist(blocking = true))
      rows
    }
    (rows, Bench.ms(t0))
  }

  /** Window-instance assignment alone, outside the timed section, on an
    * input materialised again for the probe (the timed section may have lost
    * it to the cache defect).
    */
  def assignProbe(w: BatchWorkload, res: Bench.Result, events: DataFrame): Unit = {
    val probe = events.persist()
    probe.count()
    val (rows, took, fanout) = assign(probe, w.rows, w.windows)
    res.layer("exec.assign_ms") = took
    res.layer("exec.assign_rows") = rows.toDouble
    res.layer("exec.assign_fanout") = fanout
    probe.unpersist(blocking = true)
  }
}

/** Optimizer-only measurements: no Spark involved. */
object Planning {
  private def medianMs(reps: Int)(body: => Any): Double =
    Bench.median((1 to reps).map { _ => val t0 = System.nanoTime(); body; Bench.ms(t0) })

  def probe(windows: Seq[Window], sem: Semantics, eta: BigInt, seed: Long,
            res: Bench.Result): Unit = {
    val p1 = CostModel.minCostPlan(windows, sem, eta)
    val p2 = FactorWindows.minCostPlanWithFactors(windows, sem, eta)
    medianMs(20)(FactorWindows.minCostPlanWithFactors(windows, sem, eta)) // warm-up
    res.layer("core.alg1_ms") = medianMs(41)(CostModel.minCostPlan(windows, sem, eta))
    res.layer("core.alg2_ms") = medianMs(41)(FactorWindows.minCostPlanWithFactors(windows, sem, eta))
    res.layer("core.plan_nodes") = p2.allWindows.size.toDouble
    res.layer("core.factor_windows") = p2.factorWindows.size.toDouble
    res.layer("core.model_cost_bl") = CostModel.baselineCost(windows, eta).toDouble
    res.layer("core.model_cost_wcg") = p1.totalCost.toDouble
    res.layer("core.model_cost_wcgfw") = p2.totalCost.toDouble
    // RandomGen (Algorithm 5) hopping sets as in Figure 11 (MIN, eta = 100),
    // where the optimizer does the most work. Its default slide range admits
    // only 72 distinct windows, so the 200-window set widens it.
    Seq(50 -> EvalHarness.generate("random", seed, 50),
        200 -> new WindowGen(seed, sMax = 50).randomSet(200)).foreach { case (n, ws) =>
      res.layer(s"core.alg2_ms_n$n") =
        medianMs(3)(FactorWindows.minCostPlanWithFactors(ws, Semantics.CoveredBy, 100))
    }
  }
}
