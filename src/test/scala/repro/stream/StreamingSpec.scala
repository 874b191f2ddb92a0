package repro.stream

import java.sql.Timestamp
import org.apache.spark.sql.execution.streaming.runtime.MemoryStream
import org.apache.spark.sql.functions._
import repro.{SparkSpec, SynthData}
import repro.core._
import repro.exec.{AggSpec, Executor}

/** Structured Streaming integration: the rewritten (chained time-window)
  * query over a MemoryStream must produce, for every closed window, exactly
  * what the batch executor computes — i.e. the rewriting is sound under
  * real streaming execution with watermarks, not just in batch.
  */
class StreamingSpec extends SparkSpec {
  import spark.implicits._

  private val horizon = 120L

  /** Deterministic event list mirroring SynthData.events. */
  private def eventList(n: Int, seed: Long): Seq[(Long, Long, Double)] = {
    val rnd = new scala.util.Random(seed)
    Seq.fill(n)((rnd.nextLong(horizon), 1L + rnd.nextLong(3), rnd.nextDouble() * 100))
  }

  private def runStreaming(windows: Seq[Window], agg: AggSpec,
                           events: Seq[(Long, Long, Double)],
                           withFactors: Boolean): Map[Window, Seq[(Long, Long, Double)]] = {
    val plan =
      if (withFactors) FactorWindows.minCostPlanWithFactors(windows, agg.semantics, 100)
      else CostModel.minCostPlan(windows, agg.semantics, 100)
    runChains(plan, agg, Seq(events))
  }

  /** Feed `batches` in turn through `chains` on `plan`; the closed windows
    * per user window as sorted `(k, wstart, value)`.
    */
  private def runChains(plan: WcgPlan, agg: AggSpec,
                        batches: Seq[Seq[(Long, Long, Double)]]): Map[Window, Seq[(Long, Long, Double)]] = {
    val prevPartitions = spark.conf.get("spark.sql.shuffle.partitions")
    spark.conf.set("spark.sql.shuffle.partitions", "3")
    try {
      implicit val sqlCtx = spark.sqlContext
      val input = MemoryStream[(Timestamp, Long, Double)]
      val streamDf = input.toDF().toDF("ts", "k", "v")
      val sinks = StreamingRewrite.chains(streamDf, plan, agg)
      val queries = sinks.toSeq.zipWithIndex.map { case ((w, df), i) =>
        val name = s"repro_stream_${w.r}_$i"
        w -> ((name, df.writeStream.format("memory").queryName(name)
          .outputMode("append").start()))
      }.toMap
      try {
        // Two sentinel batches push the watermark past every real window so
        // append mode finalizes them (the second batch flushes state closed
        // by the first sentinel's watermark).
        val sentinels = Seq(5000L, 6000L).map(t => Seq((t, 1L, 0.0)))
        (batches ++ sentinels).foreach { batch =>
          input.addData(batch.map { case (t, k, v) => (new Timestamp(t * 1000L), k, v) })
          queries.values.foreach(_._2.processAllAvailable())
        }
        queries.map { case (w, (name, _)) =>
          w -> spark.table(name)
            .filter(col("wstart") < horizon * 2) // drop sentinel windows
            .select("k", "wstart", "value")
            .collect()
            .map(r => (r.getLong(0), r.getLong(1), r.getDouble(2)))
            .toSeq.sorted
        }
      } finally queries.values.foreach(_._2.stop())
    } finally spark.conf.set("spark.sql.shuffle.partitions", prevPartitions)
  }

  private def batchExpected(windows: Seq[Window], agg: AggSpec,
                            events: Seq[(Long, Long, Double)]): Map[Window, Seq[(Long, Long, Double)]] = {
    val ev = events.toDF("t", "k", "v")
    windows.map { w =>
      w -> Executor.finish(Executor.subAggFromEvents(ev, w, agg), w, agg)
        .select("k", "wstart", "value")
        .collect()
        .map(r => (r.getLong(0), r.getLong(1), r.getDouble(2)))
        .toSeq.sorted
    }.toMap
  }

  private def check(windows: Seq[Window], agg: AggSpec, withFactors: Boolean,
                    seed: Long): Unit = {
    val events = eventList(400, seed)
    val got = runStreaming(windows, agg, events, withFactors)
    val want = batchExpected(windows, agg, events)
    windows.foreach { w =>
      val (g, e) = (got(w), want(w))
      assert(g.map(t => (t._1, t._2)) == e.map(t => (t._1, t._2)),
        s"$w (${agg.name}): instance sets differ: got=${g.take(3)} want=${e.take(3)}")
      g.zip(e).foreach { case ((_, _, gv), (_, _, ev2)) =>
        assert(math.abs(gv - ev2) <= 1e-6 * math.max(1.0, math.abs(ev2)),
          s"$w (${agg.name}): value mismatch")
      }
    }
  }

  test("streaming chained MIN over Example-1 windows equals batch") {
    check(Seq(10L, 20L, 40L).map(Window.tumbling), AggSpec.Min,
      withFactors = false, seed = 1)
  }

  test("streaming chained SUM with a factor window equals batch") {
    // {20,40} induces no factor; {20,30,40} re-introduces W(10,10).
    check(Seq(20L, 30L, 40L).map(Window.tumbling), AggSpec.Sum,
      withFactors = true, seed = 2)
  }

  test("streaming chained AVG (algebraic state) equals batch") {
    check(Seq(10L, 30L).map(Window.tumbling), AggSpec.Avg,
      withFactors = false, seed = 3)
  }

  test("streaming chained COUNT equals batch") {
    check(Seq(15L, 60L).map(Window.tumbling), AggSpec.Count,
      withFactors = false, seed = 4)
  }

  test("late event, t = 0: Algorithm-2 chains emit what all-roots chains emit") {
    val ws = Seq(20L, 30L, 40L).map(Window.tumbling)
    val plan = FactorWindows.minCostPlanWithFactors(ws, AggSpec.Min.semantics, 100)
    assert(plan.factorWindows.nonEmpty)
    // Events at t = 0 fall into every window's first instance. The first
    // batch moves the watermark to its latest event time, so the second
    // batch's event at t = 5 is behind it and must be dropped.
    val onTime = Seq((0L, 1L, 7.0), (0L, 2L, 3.0)) ++ eventList(200, seed = 5)
    val batches = Seq(onTime, Seq((5L, 1L, -1.0)))
    val got = runChains(plan, AggSpec.Min, batches)
    val want = runChains(WcgPlan.allRoots(ws, AggSpec.Min.semantics), AggSpec.Min, batches)
    assert(got == want)
    ws.foreach { w =>
      assert(got(w).exists(_._2 == 0L), s"$w: no instance at t = 0")
      assert(!got(w).exists(_._3 == -1.0), s"$w: the late event was aggregated")
    }
  }

  test("streaming rewrite rejects non-tumbling plans") {
    val plan = CostModel.minCostPlan(Seq(Window(10, 2)), Semantics.CoveredBy, 1)
    val ev = SynthData.events(spark, 10, 10)
      .select(col("t").cast("timestamp").as("ts"), col("k"), col("v"))
    assertThrows[IllegalArgumentException](
      StreamingRewrite.chains(ev, plan, AggSpec.Min))
  }
}
