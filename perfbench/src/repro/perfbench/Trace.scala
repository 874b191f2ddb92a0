package repro.perfbench

import scala.collection.mutable

/** One recorded span: a named interval on the wall clock (nanoseconds since
  * the epoch), linked to the span that caused it (`parent = 0` for a root).
  * Spans of one query or stream batch share `trace`.
  */
final case class Span(id: Int, trace: Int, name: String, parent: Int,
                      startNs: Long, endNs: Long, attrs: Map[String, Any])

/** A span being recorded: its id and the attributes added so far. */
final class OpenSpan(val id: Int, val attrs: mutable.Map[String, Any])

/** In-memory span recorder. Nothing is written until `spans` is read at the
  * end of the run, so tracing adds no I/O to the traced section.
  */
final class Tracer {
  private val epochOffsetNs = System.currentTimeMillis() * 1000000L - System.nanoTime()
  private val recorded = mutable.ArrayBuffer.empty[Span]
  private var nextId = 0
  private var nextTrace = 0

  def nowNs: Long = epochOffsetNs + System.nanoTime()

  def newTrace(): Int = { nextTrace += 1; nextTrace }

  /** Run `body` inside a span. `body` gets the open span, to parent child
    * spans on it and to add attributes. Returns the body's result and the
    * span's id.
    */
  def span[T](trace: Int, name: String, parent: Int, attrs: (String, Any)*)(
      body: OpenSpan => T): (T, Int) = {
    nextId += 1
    val open = new OpenSpan(nextId, mutable.Map[String, Any](attrs: _*))
    val t0 = nowNs
    val out = body(open)
    recorded += Span(open.id, trace, name, parent, t0, nowNs, open.attrs.toMap)
    (out, open.id)
  }

  /** Record a span whose interval was measured elsewhere (e.g. by the
    * streaming engine's progress reports).
    */
  def record(trace: Int, name: String, parent: Int, startNs: Long, endNs: Long,
             attrs: (String, Any)*): Int = {
    nextId += 1
    recorded += Span(nextId, trace, name, parent, startNs, endNs, attrs.toMap)
    nextId
  }

  def spans: Seq[Span] = recorded.toSeq
}

/** Minimal JSON writer for the benchmark's raw output (maps, sequences,
  * strings, numbers, booleans).
  */
object Json {
  def apply(v: Any): String = v match {
    case null | None     => "null"
    case Some(x)         => apply(x)
    case s: String       => quote(s)
    case b: Boolean      => b.toString
    case d: Double       => if (d.isNaN || d.isInfinite) "null" else d.toString
    case n: Int          => n.toString
    case n: Long         => n.toString
    case n: BigInt       => n.toString
    case s: Span         => apply(Map("id" -> s.id, "trace" -> s.trace, "name" -> s.name,
                              "parent" -> s.parent, "start_ns" -> s.startNs,
                              "end_ns" -> s.endNs, "attrs" -> s.attrs))
    case m: collection.Map[_, _] =>
      m.map { case (k, x) => quote(k.toString) + ":" + apply(x) }.mkString("{", ",", "}")
    case xs: Iterable[_] => xs.map(apply).mkString("[", ",", "]")
    case xs: Array[_]    => apply(xs.toSeq)
    case other           => quote(other.toString)
  }

  private def quote(s: String): String =
    s.flatMap {
      case '"'  => "\\\""
      case '\\' => "\\\\"
      case c if c < ' ' => f"\\u${c.toInt}%04x"
      case c    => c.toString
    }.mkString("\"", "", "\"")
}
