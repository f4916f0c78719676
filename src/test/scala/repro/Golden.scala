package repro

import java.nio.charset.StandardCharsets.UTF_8
import java.nio.file.{Files, Paths}

import org.scalatest.Assertions

/** Golden-file checks: text a run produces must equal the committed
  * class-path resource `golden/<name>` (under `src/test/resources/` of the
  * project that runs the test), line for line.
  *
  * On a mismatch the actual text is written to `target/golden/<name>` of
  * that project, and the test fails with the first lines that differ and
  * the `cp` command that accepts the new output.  There is no switch to
  * regenerate: a change that means to move an output runs the test, copies
  * the file and lists the moved cells in CHANGES.md.
  */
object Golden extends Assertions {

  private val MaxShown = 12

  def check(name: String, actual: String): Unit = {
    val expected = Option(getClass.getResourceAsStream(s"/golden/$name"))
      .map(in => try new String(in.readAllBytes(), UTF_8) finally in.close())
      .getOrElse("")
    if (expected != actual) {
      val out = Paths.get("target", "golden", name).toAbsolutePath
      Files.createDirectories(out.getParent)
      Files.write(out, actual.getBytes(UTF_8))
      val src = Paths.get("src", "test", "resources", "golden", name).toAbsolutePath
      val exp = expected.split("\n", -1)
      val act = actual.split("\n", -1)
      val differing = (0 until math.max(exp.length, act.length))
        .filter(i => exp.lift(i) != act.lift(i))
      val shown = differing.take(MaxShown).flatMap { i =>
        Vector(s"line ${i + 1}:",
          s"  - ${exp.lift(i).getOrElse("<missing>")}",
          s"  + ${act.lift(i).getOrElse("<missing>")}")
      }
      val msg = (s"golden/$name: ${differing.size} line(s) differ" +: shown :+
        s"actual output written to $out; to accept it:" :+ s"  cp $out $src").mkString("\n")
      println(msg)
      fail(msg)
    }
  }
}
