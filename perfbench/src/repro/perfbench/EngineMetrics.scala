package repro.perfbench

import java.util.concurrent.{ConcurrentHashMap, CountDownLatch, TimeUnit}
import org.apache.spark.SparkContext
import org.apache.spark.scheduler._

/** Engine-side counters per job group: stages run, tasks run, and shuffle
  * bytes and records written. The benchmark tags every query with a job
  * group (`SparkContext.setJobGroup`) naming the plan it ran, so counts are
  * attributed to BL, WCG or WCG-FW.
  */
final class EngineMetrics extends SparkListener {
  private val stageGroup = new ConcurrentHashMap[Int, String]()
  private val jobGroup   = new ConcurrentHashMap[Int, String]()
  private val counts     = new ConcurrentHashMap[String, Array[Long]]()
  @volatile private var drained: (String, CountDownLatch) = ("", new CountDownLatch(0))

  private def add(group: String, stages: Long, tasks: Long, bytes: Long, records: Long): Unit =
    counts.compute(group, (_, old) => {
      val a = if (old == null) new Array[Long](4) else old
      a(0) += stages; a(1) += tasks; a(2) += bytes; a(3) += records
      a
    })

  override def onJobStart(e: SparkListenerJobStart): Unit =
    Option(e.properties).flatMap(p => Option(p.getProperty("spark.jobGroup.id")))
      .foreach { g =>
        jobGroup.put(e.jobId, g)
        e.stageIds.foreach(stageGroup.put(_, g))
      }

  override def onJobEnd(e: SparkListenerJobEnd): Unit = {
    val (g, latch) = drained
    if (jobGroup.get(e.jobId) == g) latch.countDown()
  }

  override def onStageCompleted(e: SparkListenerStageCompleted): Unit =
    Option(stageGroup.get(e.stageInfo.stageId)).foreach(add(_, 1, 0, 0, 0))

  override def onTaskEnd(e: SparkListenerTaskEnd): Unit =
    Option(stageGroup.get(e.stageId)).foreach { g =>
      val w = Option(e.taskMetrics).map(_.shuffleWriteMetrics)
      add(g, 0, 1, w.fold(0L)(_.bytesWritten), w.fold(0L)(_.recordsWritten))
    }

  /** Wait until the listener has seen every event posted so far: run a
    * one-task job and wait for its end event, which the listener bus
    * delivers after all earlier events.
    */
  def drain(sc: SparkContext): Unit = {
    val g = s"perfbench-drain-${System.nanoTime()}"
    val latch = new CountDownLatch(1)
    drained = (g, latch)
    sc.setJobGroup(g, "drain listener bus")
    try sc.parallelize(Seq(1), 1).count()
    finally sc.clearJobGroup()
    require(latch.await(60, TimeUnit.SECONDS), "listener bus did not drain")
  }

  /** `(stages, tasks, shuffle bytes, shuffle records)` summed over the job
    * groups whose name satisfies `p`.
    */
  def totals(p: String => Boolean): (Long, Long, Long, Long) = {
    val a = new Array[Long](4)
    counts.forEach((g, c) => if (p(g)) (0 until 4).foreach(i => a(i) += c(i)))
    (a(0), a(1), a(2), a(3))
  }
}
