package repro.perfbench

import java.sql.Timestamp
import java.time.Instant
import scala.collection.mutable
import org.apache.spark.sql.{DataFrame, SparkSession, SQLContext}
import org.apache.spark.sql.execution.streaming.runtime.MemoryStream
import org.apache.spark.sql.functions.col
import org.apache.spark.sql.streaming.{StreamingQuery, StreamingQueryProgress}
import repro.core.{CostModel, FactorWindows, Window, WcgPlan}
import repro.exec.{AggSpec, Executor}
import repro.stream.StreamingRewrite

/** Chained streaming workload `stream-ex7-min`: the Example-7 windows
  * {W(20,20), W(30,30), W(40,40)} under MIN, where Algorithm 2 adds the
  * factor window W(10,10). Each plan (every window a root; Algorithm 1;
  * Algorithm 2) runs as its own set of sink queries over its own
  * `MemoryStream`.
  *
  * Closed loop: one thread adds a micro-batch of `BatchEvents` events to a
  * plan's stream and waits for `processAllAvailable()` on every sink of that
  * plan before sending the next. Batch `i` holds event times drawn uniformly
  * (so shuffled) from `[i·Span, (i+1)·Span)` seconds, so no event is late.
  */
object StreamBench {
  val Name        = "stream-ex7-min"
  val Windows     = Vector(20L, 30L, 40L).map(Window.tumbling)
  val Agg         = AggSpec.Min
  val BatchEvents = 50000
  val Span        = 120L
  val Keys        = 4L
  val StreamPartitions = 4

  type Event = (Timestamp, Long, Double)

  /** Events of batch `i`; the same `(seed, i)` gives the same batch. */
  def batch(seed: Long, i: Int): Vector[(Long, Long, Double)] = {
    val rnd = new scala.util.Random(seed * 1000003L + i)
    Vector.fill(BatchEvents)((i * Span + rnd.nextLong(Span), 1L + rnd.nextLong(Keys),
      math.round(rnd.nextDouble() * 100000) / 1000.0))
  }

  private def toEvents(b: Seq[(Long, Long, Double)]): Seq[Event] =
    b.map { case (t, k, v) => (new Timestamp(t * 1000L), k, v) }

  /** One plan's stream and its sink queries. */
  final class PlanStream(spark: SparkSession, val name: String, val plan: WcgPlan, work: String) {
    implicit val sqlCtx: SQLContext = spark.sqlContext
    import spark.implicits._
    val input = MemoryStream[Event]
    val sinks: Vector[(Window, String, StreamingQuery)] =
      StreamingRewrite.chains(input.toDF().toDF("ts", "k", "v"), plan, Agg)
        .toVector.sortBy(_._1.r).map { case (w, df) =>
          val table = s"${name}_w${w.r}"
          (w, table, df.writeStream.format("memory").queryName(table).outputMode("append")
            .option("checkpointLocation", s"$work/checkpoints/$table").start())
        }
    /** Wall-clock interval (epoch ns) of each timed push, for matching
      * progress reports to batches.
      */
    val pushes = mutable.ArrayBuffer.empty[(Long, Long)]
    val addMs  = mutable.ArrayBuffer.empty[Double]

    /** Push one batch and wait for every sink; returns the latency in ms. */
    def push(events: Seq[Event], tracer: Tracer, timed: Boolean): Double = {
      val startNs = tracer.nowNs
      val t0 = System.nanoTime()
      input.addData(events)
      val added = Bench.ms(t0)
      sinks.foreach(_._3.processAllAvailable())
      val took = Bench.ms(t0)
      if (timed) { pushes += ((startNs, tracer.nowNs)); addMs += added }
      took
    }

    def progress: Vector[(String, StreamingQueryProgress)] =
      sinks.flatMap { case (_, table, q) => q.recentProgress.map(table -> _) }

    def stop(): Unit = sinks.foreach(_._3.stop())
  }

  def run(spark: SparkSession, a: Bench.Args, res: Bench.Result, tracer: Tracer): Unit = {
    val eta = BigInt(BatchEvents / Span)
    val alg1 = CostModel.minCostPlan(Windows, Agg.semantics, eta)
    val alg2 = FactorWindows.minCostPlanWithFactors(Windows, Agg.semantics, eta)
    // Baseline: the same windows with every parent removed, fed through the
    // same `chains`, so each window aggregates the raw stream.
    val bl = alg1.copy(parent = alg1.parent.map { case (w, _) => w -> None })

    // Stateful operators keep one state store per shuffle partition; the
    // repo's streaming entry points use 3-4 partitions (StreamingJob,
    // StreamingSpec), not the batch executor's 64.
    spark.conf.set("spark.sql.shuffle.partitions", StreamPartitions)
    // Set-up starts every plan's sink queries `BatchBench.Setups` times,
    // each time with fresh checkpoints, and keeps the last set running.
    val startS = mutable.ArrayBuffer.empty[Double]
    var streams: Map[String, PlanStream] = Map.empty
    (1 to BatchBench.Setups).foreach { n =>
      streams.values.foreach(_.stop())
      val t0 = System.nanoTime()
      streams = Vector("bl" -> bl, "wcg" -> alg1, "wcgfw" -> alg2)
        .map { case (name, p) => name -> new PlanStream(spark, name, p, s"${a.work}/setup-$n") }.toMap
      startS += Bench.ms(t0) / 1e3
    }
    res.eventsPerSample = BatchEvents

    var next = 0
    def nextBatch(): Seq[Event] = {
      val t = System.nanoTime()
      val b = toEvents(batch(a.seed, next))
      res.inputGenS += Bench.ms(t) / 1e3
      next += 1
      b
    }

    def round(i: Int, timed: Boolean, traced: Boolean): Unit = {
      val events = nextBatch()
      Bench.rotate(Bench.Plans, i).foreach { p =>
        val s = streams(p)
        val trace = tracer.newTrace()
        val t = tracer.nowNs
        val took = try Right(s.push(events, tracer, timed || traced))
          catch { case e: Exception => Left(e) }
        if (traced) {
          tracer.record(trace, "stream.batch", 0, t, tracer.nowNs, "plan" -> p, "batch" -> (next - 1))
          took.foreach(res.traced(p, _))
        }
        res.attempt(took.left.toOption.map(e => s"$p batch ${next - 1} threw $e"))
        if (timed) took.foreach(res.sample(p, _))
      }
    }

    round(0, timed = false, traced = false)
    val start = System.nanoTime()
    var i = 1
    while (Bench.moreRounds(a, start, i - 1)) {
      round(i, timed = true, traced = false)
      res.heapMb += Bench.liveHeapMb()
      i += 1
    }
    res.setupS ++= startS.map(_ + Bench.median(res.inputGenS.toSeq))

    if (a.trace) {
      round(i, timed = false, traced = true)
      Planning.probe(Windows, Agg.semantics, eta, a.seed, res)
      streamLayers(streams("wcgfw"), res)
      linkProgress(streams.values.toSeq, tracer)
    }
    import spark.implicits._
    val all = (0 until next).flatMap(batch(a.seed, _)).toDF("t", "k", "v").persist()
    val want = referenceCheck(spark, streams.values.toSeq, all, next, res)
    streams.values.foreach(_.stop())

    if (a.trace) {
      // The `exec` layer on this workload: the batch executor computing the
      // same windows over the same events, traced as in the batch
      // workloads, with their 64 shuffle partitions.
      spark.conf.set("spark.sql.shuffle.partitions", Bench.BatchPartitions)
      val w = BatchWorkload(Windows, Agg, rows = next.toLong * BatchEvents,
        horizon = next * Span, keys = Keys)
      val (rows, _) = BatchBench.tracedQuery(w, "wcgfw", all, () => alg1, () => alg2, tracer)
      res.attempt(Bench.diff(BatchBench.keyed(rows), want).map(d => s"traced exec: $d"))
      BatchBench.assignProbe(w, res, all)
    }
  }

  private def triggerMs(p: StreamingQueryProgress): Double =
    Option(p.durationMs.get("triggerExecution")).fold(0.0)(_.doubleValue)

  private def startNs(p: StreamingQueryProgress): Long = {
    val i = Instant.parse(p.timestamp)
    i.getEpochSecond * 1000000000L + i.getNano
  }

  /** Per-layer numbers from the sinks' `StreamingQueryProgress` reports,
    * for the timed batches of one plan.
    */
  private def streamLayers(s: PlanStream, res: Bench.Result): Unit = {
    val progress = s.progress
    val perBatch = s.pushes.map { case (t0, t1) =>
      progress.filter { case (_, p) => val t = startNs(p); t >= t0 && t <= t1 }.map(_._2)
    }
    val last = s.sinks.map { case (_, table, _) =>
      progress.filter(p => p._1 == table && p._2.stateOperators.nonEmpty).last._2
    }
    val stateOps = last.map(_.stateOperators.length).sum
    res.layer("stream.queries") = s.sinks.size.toDouble
    res.layer("stream.state_ops") = stateOps.toDouble
    res.layer("stream.useful_state_ratio") = s.plan.allWindows.size.toDouble / stateOps
    res.layer("stream.trigger_ms") = Bench.median(perBatch.map(_.map(triggerMs).sum).toSeq)
    res.layer("stream.add_batch_ms") = Bench.median(s.addMs.toSeq)
    res.layer("stream.input_rows") = Bench.median(perBatch.map(_.map(_.numInputRows.toDouble).sum).toSeq)
    res.layer("stream.state_rows") = last.flatMap(_.stateOperators.map(_.numRowsTotal)).sum.toDouble
    res.layer("stream.state_bytes") = last.flatMap(_.stateOperators.map(_.memoryUsedBytes)).sum.toDouble
  }

  /** One child span per sink-query trigger, parented on the traced
    * `stream.batch` span that was open when the trigger started.
    */
  private def linkProgress(streams: Seq[PlanStream], tracer: Tracer): Unit = {
    val batches = tracer.spans.filter(_.name == "stream.batch")
    streams.foreach { s =>
      s.progress.foreach { case (table, p) =>
        val t = startNs(p)
        batches.find(b => b.attrs("plan") == s.name && t >= b.startNs && t <= b.endNs)
          .foreach { b =>
            tracer.record(b.trace, "stream.query", b.id, t, t + (triggerMs(p) * 1e6).toLong,
              "plan" -> s.name, "sink" -> table, "rows_in" -> p.numInputRows,
              "state_ops" -> p.stateOperators.length)
          }
      }
    }
  }

  /** Close every window with two sentinel batches (the second flushes state
    * closed by the first one's watermark), then check that each sink's
    * windows equal `Executor.baseline` over the same events. One check per
    * plan, counted in `attempted`/`failed`.
    */
  private def referenceCheck(spark: SparkSession, streams: Seq[PlanStream], all: DataFrame,
                             batches: Int, res: Bench.Result): Map[Seq[Long], Double] = {
    val end = batches * Span
    // The plans' streams are independent, so they take the sentinels together.
    Seq(end + 10 * Span, end + 20 * Span).foreach { t =>
      streams.foreach(_.input.addData(toEvents(Seq((t, 1L, 0.0)))))
      streams.foreach(_.sinks.foreach(_._3.processAllAvailable()))
    }
    val want = BatchBench.keyed(Executor.baseline(all, Windows, Agg).collect())
    streams.foreach { s =>
      val got = s.sinks.flatMap { case (_, table, _) =>
        spark.table(table).filter(col("wstart") < end).collect()
      }.toArray
      res.attempt(Bench.diff(BatchBench.keyed(got), want).map(d => s"stream ${s.name}: $d"))
    }
    want
  }
}
